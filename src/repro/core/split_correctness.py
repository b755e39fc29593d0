"""Split-correctness: is ``P = P_S o S``? (Section 5.1.)

Two procedures are provided, matching the paper's complexity
landscape:

* :func:`split_correct_general` -- Theorem 5.1: construct the
  polynomial-size automaton for ``P_S o S`` (Lemma C.2) and test
  spanner equivalence (PSPACE via the canonical extended form).
* :func:`split_correct_dfvsa` -- Theorem 5.7: for deterministic
  functional VSet-automata and a *disjoint* splitter, polynomial time.
  First the cover condition is checked (Lemma 5.6); then the proof's
  nondeterministic discrepancy search is run as a reachability problem
  over the deterministic triple product of ``P``, ``S``, and ``P_S``,
  looking for a ref-word on which ``S`` accepts a split and exactly
  one of ``P`` and ``P_S`` accepts.  The proof takes the split that
  covers a tuple to be unique; a tuple whose spans are all empty at a
  split's border (or a 0-ary tuple) may be covered by another split
  too, and when only such a tuple tells ``P`` and ``P_S`` apart the
  procedure falls back to Theorem 5.1 (as the cover test does for its
  own form of this corner case).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.automata.containment import containment_search
from repro.core.composition import compose, splitter_variable
from repro.core.cover import cover_condition_disjoint
from repro.spanners.containment import equivalence_witness
from repro.spanners.determinism import is_deterministic
from repro.spanners.refwords import VarOp
from repro.spanners.vset_automaton import VSetAutomaton

_DEAD = ("dead",)


@dataclass(frozen=True)
class CertificationAccount:
    """What one run of Theorem 5.1's procedure built and searched:
    the automata by state count, the subset pairs the two containment
    searches explored, and the seconds spent constructing versus
    searching — certification's own statement of where its time goes."""

    verdict: bool
    spanner_states: int
    splitter_states: int
    composed_states: int
    spanner_extended_states: int
    composed_extended_states: int
    pairs_explored: int
    construct_seconds: float
    search_seconds: float


def split_correct_general(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
) -> bool:
    """Theorem 5.1: split-correctness for arbitrary regular spanners."""
    return split_correct_account(spanner, split_spanner, splitter).verdict


def split_correct_account(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
) -> CertificationAccount:
    """:func:`split_correct_general` with its account: construct
    ``P_S o S`` (Lemma C.2) and both canonical extended forms, then
    decide equivalence by two containment searches (Theorem 4.1), the
    second only if the first finds no counterexample."""
    _check_compatible(spanner, split_spanner)
    started = time.perf_counter()
    composed = compose(split_spanner, splitter)
    left, right = spanner.extended_nfa(), composed.extended_nfa()
    constructed = time.perf_counter()
    word, pairs = containment_search(left, right)
    if word is None:
        word, backward = containment_search(right, left)
        pairs += backward
    return CertificationAccount(
        verdict=word is None,
        spanner_states=spanner.state_count(),
        splitter_states=splitter.state_count(),
        composed_states=composed.state_count(),
        spanner_extended_states=len(left.states),
        composed_extended_states=len(right.states),
        pairs_explored=pairs,
        construct_seconds=constructed - started,
        search_seconds=time.perf_counter() - constructed,
    )


def split_correct_witness(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
) -> Optional[Tuple[Tuple, "object"]]:
    """A ``(document, tuple)`` pair on which ``P`` and ``P_S o S``
    differ, or ``None`` when split-correct."""
    composed = compose(split_spanner, splitter)
    return equivalence_witness(spanner, composed)


def split_correct_dfvsa(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    check: bool = True,
) -> bool:
    """Theorem 5.7: polynomial-time split-correctness.

    Requires ``spanner`` and ``split_spanner`` deterministic and
    functional and ``splitter`` a deterministic functional *disjoint*
    splitter; with ``check=True`` determinism is verified (functionality
    and disjointness are assumed from the caller, cf.
    :func:`repro.core.api.split_correct` which verifies everything).
    Polynomial unless the only discrepancies the search finds are of
    tuples another split may cover too: those are decided by
    :func:`split_correct_general`.
    """
    if check:
        for name, automaton in (
            ("spanner", spanner),
            ("split spanner", split_spanner),
            ("splitter", splitter),
        ):
            if not is_deterministic(automaton):
                raise ValueError(f"{name} must be deterministic (dfVSA)")
    verdict = dfvsa_verdict(spanner, split_spanner, splitter)
    if verdict is None:
        return split_correct_general(spanner, split_spanner, splitter)
    return verdict


def dfvsa_verdict(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
) -> Optional[bool]:
    """Theorem 5.7's own answer, under :func:`split_correct_dfvsa`'s
    preconditions (not checked here): ``None`` when the search cannot
    decide — every discrepancy it finds is of a tuple another split may
    cover too — which leaves the question to Theorem 5.1."""
    _check_compatible(spanner, split_spanner)
    if not cover_condition_disjoint(spanner, splitter):
        return False
    found = _discrepancy_reachable(spanner, split_spanner, splitter)
    return None if found is None else not found


def _step(automaton: VSetAutomaton, state, symbol):
    """Deterministic step; ``_DEAD`` absorbs missing transitions."""
    if state is _DEAD:
        return _DEAD
    successors = automaton.nfa.successors(state, symbol)
    if not successors:
        return _DEAD
    (successor,) = successors
    return successor


# Where the ref-word's variable operations sit inside the split, read
# while the split is open.  A tuple can be covered by a second disjoint
# split only when all its spans are empty at one position on the split's
# border, or when it has no spans at all (a 0-ary spanner); each other
# tuple has exactly one covering split.
_NONE_AT_BEGIN = 0     # no operation and no letter yet
_NONE = 1              # letters, no operation yet
_AT_BEGIN = 2          # operations at the split's begin, no letter since
_AFTER_BEGIN = 3       # operations at the begin, letters since
_AT_INNER = 4          # operations after a letter, no letter since
_ONE_SPLIT = 5         # operations around a letter, or at an inner position
_AFTER_LETTER = (_NONE, _NONE, _AFTER_BEGIN, _AFTER_BEGIN, _ONE_SPLIT,
                 _ONE_SPLIT)
_AFTER_OP = (_AT_BEGIN, _AT_INNER, _AT_BEGIN, _ONE_SPLIT, _AT_INNER,
             _ONE_SPLIT)


def _discrepancy_reachable(
    spanner: VSetAutomaton,
    split_spanner: VSetAutomaton,
    splitter: VSetAutomaton,
) -> Optional[bool]:
    """The proof's on-the-fly search for a split where ``P`` and
    ``P_S`` behave differently.

    Simulates guessing a ref-word over ``Sigma + Gamma_V + Gamma_x``
    symbol by symbol.  Because all three automata are deterministic the
    configuration space is the plain triple product with a phase flag,
    and reachability of an accepting discrepancy decides the problem.
    Variable operations outside the split are not explored: by the
    (already verified) cover condition they cannot matter.

    ``True`` when a discrepancy shows ``P`` and ``P_S o S`` differ.  A
    tuple of ``P`` that ``P_S`` misses on a split is only such a proof
    when no other split covers the tuple, which the configuration's
    position class (``_AFTER_LETTER``/``_AFTER_OP``) tells; the proof's
    argument assumes it always holds.  ``None`` when every discrepancy
    found is of the other kind (all spans empty at a border of the
    split, or none at all) — the search cannot decide then — and
    ``False`` when there is none.
    """
    x = splitter_variable(splitter)
    open_x, close_x = VarOp(x, False), VarOp(x, True)
    doc_alphabet = (
        spanner.doc_alphabet
        | split_spanner.doc_alphabet
        | splitter.doc_alphabet
    )
    var_ops = [
        VarOp(v, c) for v in sorted(spanner.variables, key=str)
        for c in (False, True)
    ]
    undecided = False
    # Phases: 0 before the split opens, 1 inside, 2 after it closed.
    start = (spanner.nfa.initial, splitter.nfa.initial, None, 0,
             _NONE_AT_BEGIN)
    seen = {start}
    queue = deque([start])
    while queue:
        q_p, q_s, q_ps, phase, where = queue.popleft()
        if phase == 2 and q_s in splitter.nfa.finals:
            p_accepts = q_p is not _DEAD and q_p in spanner.nfa.finals
            ps_accepts = (
                q_ps is not _DEAD and q_ps in split_spanner.nfa.finals
            )
            if ps_accepts and not p_accepts:
                return True
            if p_accepts and not ps_accepts:
                if where == _ONE_SPLIT:
                    return True
                undecided = True
        moves = []
        for symbol in doc_alphabet:
            next_ps = _step(split_spanner, q_ps, symbol) if phase == 1 else q_ps
            moves.append(
                (_step(spanner, q_p, symbol),
                 _step(splitter, q_s, symbol),
                 next_ps,
                 phase,
                 _AFTER_LETTER[where] if phase == 1 else where)
            )
        if phase == 1:
            for op in var_ops:
                moves.append(
                    (_step(spanner, q_p, op),
                     q_s,
                     _step(split_spanner, q_ps, op),
                     1,
                     _AFTER_OP[where])
                )
        if phase == 0:
            next_s = _step(splitter, q_s, open_x)
            if next_s is not _DEAD:
                moves.append((q_p, next_s, split_spanner.nfa.initial, 1,
                              where))
        elif phase == 1:
            next_s = _step(splitter, q_s, close_x)
            if next_s is not _DEAD:
                moves.append((q_p, next_s, q_ps, 2, where))
        for config in moves:
            if config[1] is _DEAD:
                continue
            if config not in seen:
                seen.add(config)
                queue.append(config)
    return None if undecided else False


def _check_compatible(
    spanner: VSetAutomaton, split_spanner: VSetAutomaton
) -> None:
    if spanner.variables != split_spanner.variables:
        raise ValueError(
            "P and P_S must use the same variables: "
            f"{sorted(map(str, spanner.variables))} vs "
            f"{sorted(map(str, split_spanner.variables))}"
        )
