"""Determinism of VSet-automata (Sections 4.2 and 4.3).

The paper distinguishes *weakly deterministic* VSet-automata (no
epsilon transitions, at most one successor per symbol — the notion of
Maturana et al. [25]) from *deterministic* ones, which additionally
perform adjacent variable operations in a fixed total order.  Weak
determinism leaves enough nondeterminism to make containment
PSPACE-hard (Theorem 4.2); the stronger notion yields an NL containment
test (Theorem 4.3) and underlies all tractability results of Section 5.

:func:`determinize` implements Proposition 4.4: every VSet-automaton
has an equivalent deterministic *and functional* one.  The construction
goes through the canonical extended form (block symbols), applies the
subset construction there, and expands blocks back into sorted
operation chains.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Optional, Set

from repro.automata.compiled import MAX_BYTE_ROWS
from repro.automata.nfa import EPSILON, NFA
from repro.spanners.refwords import VarOp
from repro.spanners.vset_automaton import (
    VSetAutomaton,
    from_extended_nfa,
)


def is_weakly_deterministic(automaton: VSetAutomaton) -> bool:
    """Maturana et al.'s determinism: no epsilon moves, and at most one
    successor for every (state, symbol) pair."""
    nfa = automaton.nfa
    for state in nfa.states:
        for symbol in nfa.symbols_from(state):
            if symbol is EPSILON:
                return False
            if len(nfa.successors(state, symbol)) > 1:
                return False
    return True


def is_deterministic(automaton: VSetAutomaton) -> bool:
    """The paper's stronger determinism (conditions (1) and (2)).

    Besides weak determinism, consecutive variable operations must
    respect the fixed total order: whenever ``q1 --v--> q2 --v'--> q3``
    with both labels in ``Gamma_V``, ``v < v'`` must hold.
    """
    if not is_weakly_deterministic(automaton):
        return False
    nfa = automaton.nfa
    for q1 in nfa.states:
        for v in nfa.symbols_from(q1):
            if not isinstance(v, VarOp):
                continue
            for q2 in nfa.successors(q1, v):
                for v2 in nfa.symbols_from(q2):
                    if isinstance(v2, VarOp) and not v < v2:
                        return False
    return True


def is_dfvsa(automaton: VSetAutomaton) -> bool:
    """Deterministic *and* functional — the class dfVSA of the paper."""
    return is_deterministic(automaton) and automaton.is_functional()


#: How many subsets :func:`determinize_within_cap` — what a chunk
#: runner lowers (:meth:`VSetAutomaton.determinized`) — may build: the
#: byte-row limit, so a plan whose subset construction blows up pays a
#: bounded price at lowering and keeps the automaton as given.
MAX_DETERMINISED_SUBSETS = MAX_BYTE_ROWS


def _determinize_extended(extended: NFA,
                          cap: Optional[int] = None) -> Optional[NFA]:
    """Subset construction over the block alphabet; ``None`` once it
    has built more than ``cap`` subsets.

    Only symbols actually present are considered; missing symbols lead
    to rejection anyway.  The result has at most one successor per
    block symbol.
    """
    start = extended.epsilon_closure({extended.initial})
    seen: Set[FrozenSet] = {start}
    queue = deque([start])
    transitions = []
    finals = set()
    while queue:
        subset = queue.popleft()
        if subset & extended.finals:
            finals.add(subset)
        symbols = set()
        for state in subset:
            symbols.update(
                s for s in extended.symbols_from(state) if s is not EPSILON
            )
        for symbol in symbols:
            target = extended.step(subset, symbol)
            if not target:
                continue
            transitions.append((subset, symbol, target))
            if target not in seen:
                seen.add(target)
                queue.append(target)
        if cap is not None and len(seen) > cap:
            return None
    return NFA(extended.alphabet, seen, start, finals, transitions)


def _determinize(automaton: VSetAutomaton,
                 cap: Optional[int]) -> Optional[VSetAutomaton]:
    det = _determinize_extended(automaton.extended_nfa(), cap)
    if det is None:
        return None
    result = from_extended_nfa(det, automaton.doc_alphabet,
                               automaton.variables)
    return result.relabel()


def determinize(automaton: VSetAutomaton) -> VSetAutomaton:
    """Proposition 4.4: an equivalent deterministic functional VSA.

    The output satisfies :func:`is_deterministic` and
    :func:`VSetAutomaton.is_functional`; semantics are preserved
    exactly (``A(d) == determinize(A)(d)`` for every document).
    """
    return _determinize(automaton, None)


def determinize_within_cap(
        automaton: VSetAutomaton) -> Optional[VSetAutomaton]:
    """:func:`determinize`, or ``None`` when the subset construction
    passes :data:`MAX_DETERMINISED_SUBSETS`."""
    return _determinize(automaton, MAX_DETERMINISED_SUBSETS)


def lexicographic_normalize(automaton: VSetAutomaton) -> VSetAutomaton:
    """Equivalent functional VSA whose ref-words are operation-ordered.

    This is the normalization of Fagin et al.'s Lemma 4.9 (used inside
    the proof of Proposition 4.4) *without* the subset construction, so
    the result stays polynomial in the input but is generally still
    nondeterministic.
    """
    extended = automaton.extended_nfa()
    return from_extended_nfa(extended, automaton.doc_alphabet,
                             automaton.variables)


def dfvsa_contains(left: VSetAutomaton, right: VSetAutomaton,
                   check: bool = True) -> bool:
    """Theorem 4.3: containment of dfVSA in polynomial time (NL).

    For deterministic functional VSet-automata every output tuple has a
    unique, operation-ordered ref-word (Observation B.1), so spanner
    containment coincides with containment of the automata read as
    plain deterministic automata over ``Sigma + Gamma_V`` — decided by
    product-graph reachability.  With ``check=True`` the preconditions
    are verified first.
    """
    if left.variables != right.variables:
        raise ValueError("containment requires identical variable sets")
    if check:
        for name, automaton in (("left", left), ("right", right)):
            if not is_deterministic(automaton):
                raise ValueError(f"{name} operand is not deterministic")
            if not automaton.is_functional():
                raise ValueError(f"{name} operand is not functional")
    # Both automata are deterministic, so the generic subset-based
    # containment check degenerates to the product reachability of the
    # NL procedure: every subset it explores is a singleton (or empty).
    from repro.automata.containment import nfa_contains

    return nfa_contains(left.nfa, right.nfa)


def dfvsa_equivalent(left: VSetAutomaton, right: VSetAutomaton,
                     check: bool = True) -> bool:
    """Equivalence of dfVSA via two NL containment tests."""
    return dfvsa_contains(left, right, check) and dfvsa_contains(
        right, left, check
    )
