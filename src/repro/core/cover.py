"""The cover condition (Definition 5.2, Lemmas 5.3-5.6).

A spanner ``P`` and splitter ``S`` satisfy the cover condition when
every output tuple of ``P`` on any document is contained in some span
produced by ``S``.  It is a necessary condition for splittability
(Lemma 5.3), PSPACE-complete in general (Lemma 5.4), and decidable in
polynomial time for deterministic functional VSet-automata with
*disjoint* splitters (Lemma 5.6) by a reduction to containment of
unambiguous finite automata.

The tractable procedure builds the proof's automata ``A_P`` and
``A_S`` over the bit-extended alphabet ``(Sigma + Gamma_V) x {0, 1}``
literally.  One corner case surfaced during this reproduction: when an
output tuple consists solely of empty spans at the boundary between
two *adjacent* disjoint splits, both splits cover the tuple and
``A_S`` has two accepting runs — it is then not unambiguous and the
counting-based containment test does not apply.  The implementation
detects this (an :class:`repro.automata.ufa.AmbiguityError`) and falls
back to the general procedure.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from repro.automata.nfa import EPSILON, NFA
from repro.automata.ufa import AmbiguityError, ufa_contains
from repro.core.composition import compose, splitter_variable
from repro.spanners.containment import spanner_contains
from repro.spanners.refwords import VarOp
from repro.spanners.vset_automaton import VSetAutomaton

Variable = Hashable

#: Bit marking positions inside the tuple zone (Lemma 5.6 encoding).
_IN, _OUT = 1, 0


def cover_condition_general(
    spanner: VSetAutomaton, splitter: VSetAutomaton
) -> bool:
    """Lemma 5.4: the cover condition via ``P <= P_V o S``.

    ``P_V`` is the universal spanner selecting every tuple, so
    ``P_V o S`` selects exactly the tuples covered by some split.
    PSPACE in general.
    """
    universal = VSetAutomaton.universal_spanner(
        spanner.doc_alphabet | splitter.doc_alphabet, spanner.variables
    )
    covered = compose(universal, splitter)
    return spanner_contains(spanner, covered)


def cover_condition_disjoint(
    spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    fallback: bool = True,
) -> bool:
    """Lemma 5.6: polynomial-time cover test for disjoint splitters.

    Builds the unambiguous automata ``A_P`` and ``A_S`` of the proof
    and decides ``L(A_P) <= L(A_S)`` with the Stearns-Hunt counting
    test.  ``spanner`` should be unambiguous on ref-words (guaranteed
    for dfVSA); ``splitter`` must be disjoint.

    With ``fallback=True`` the adjacent-empty-span corner case (see
    module docstring) silently falls back to the general procedure.
    """
    if not spanner.variables:
        # The 0-ary cover condition states that S outputs at least one
        # span whenever P produces the empty tuple; the bit encoding of
        # Lemma 5.6 needs at least one variable, so fall back.
        return cover_condition_general(spanner, splitter)
    a_p = _cover_automaton_p(spanner)
    a_s = _cover_automaton_s(spanner, splitter)
    try:
        return ufa_contains(a_p, a_s)
    except AmbiguityError:
        if not fallback:
            raise
        return cover_condition_general(spanner, splitter)


def cover_condition(
    spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    disjoint: Optional[bool] = None,
) -> bool:
    """Decide the cover condition, choosing the best available method.

    ``disjoint`` may be supplied to skip the disjointness check of the
    splitter (Proposition 5.5).
    """
    from repro.splitters.disjointness import is_disjoint

    if disjoint is None:
        disjoint = is_disjoint(splitter)
    if disjoint:
        return cover_condition_disjoint(spanner, splitter)
    return cover_condition_general(spanner, splitter)


def _phase_partition(state: Tuple) -> Optional[str]:
    """Classify a validity-product state by its variable statuses.

    States of :meth:`VSetAutomaton.valid_ref_nfa` are pairs whose
    second component is the status tuple (0 unopened, 1 open,
    2 closed); this realizes the ``Q_pre / Q_mid / Q_post`` partition
    of Freydenberger et al. used in the proof of Lemma 5.6.
    """
    _, status = state
    if all(part == 0 for part in status):
        return "pre"
    if all(part == 2 for part in status):
        return "post"
    return "mid"


def _cover_automaton_p(spanner: VSetAutomaton) -> NFA:
    """The automaton ``A_P``: ref-words with the tuple zone marked.

    Accepts ``(s_1, b_1)...(s_n, b_n)`` where the ``s_k`` form a valid
    accepted ref-word of ``P`` and the bits are 1 exactly from the
    first variable operation through the last one.
    """
    base = spanner.valid_ref_nfa()
    transitions = []
    states = set()
    for source, symbol, target in base.transitions():
        if symbol is EPSILON:
            for phase in (1, 2, 3):
                transitions.append(((phase, source), EPSILON, (phase, target)))
            continue
        src_part = _phase_partition(source)
        tgt_part = _phase_partition(target)
        if isinstance(symbol, VarOp):
            if src_part == "pre":
                # First operation: enter the zone.
                transitions.append(((1, source), (symbol, _IN), (2, target)))
            if tgt_part == "post":
                # Last operation: leave the zone right after it.
                transitions.append(((2, source), (symbol, _IN), (3, target)))
            if tgt_part != "post" and src_part != "pre":
                transitions.append(((2, source), (symbol, _IN), (2, target)))
        else:
            transitions.append(((1, source), (symbol, _OUT), (1, target)))
            transitions.append(((3, source), (symbol, _OUT), (3, target)))
            transitions.append(((2, source), (symbol, _IN), (2, target)))
    alphabet = {label for _, label, _ in transitions if label is not EPSILON}
    finals = {(3, f) for f in base.finals}
    states.add((1, base.initial))
    states.update(finals)
    if not alphabet:
        alphabet = {("cover-dummy", _OUT)}
    return NFA(alphabet, states, (1, base.initial), finals, transitions).trim()


def _cover_automaton_s(
    spanner: VSetAutomaton, splitter: VSetAutomaton
) -> NFA:
    """The automaton ``A_S``: words of ``A_P`` whose zone fits a split.

    Simulates the splitter in five phases (before its variable opens,
    inside before the zone, inside the zone, inside after the zone,
    after its variable closes); the spanner's variable operations are
    self-loops because the splitter does not read them.
    """
    s_nfa = splitter.valid_ref_nfa()
    x = splitter_variable(splitter)
    open_x, close_x = VarOp(x, False), VarOp(x, True)
    doc_alphabet = spanner.doc_alphabet | splitter.doc_alphabet
    var_ops = [VarOp(v, c) for v in spanner.variables for c in (False, True)]

    transitions = []
    for source, symbol, target in s_nfa.transitions():
        if symbol is EPSILON:
            for phase in (1, 2, 3, 4, 5):
                transitions.append(((phase, source), EPSILON, (phase, target)))
        elif symbol == open_x:
            transitions.append(((1, source), EPSILON, (2, target)))
        elif symbol == close_x:
            transitions.append(((4, source), EPSILON, (5, target)))
        elif isinstance(symbol, VarOp):
            continue
        else:
            transitions.append(((1, source), (symbol, _OUT), (1, target)))
            transitions.append(((2, source), (symbol, _OUT), (2, target)))
            transitions.append(((3, source), (symbol, _IN), (3, target)))
            transitions.append(((4, source), (symbol, _OUT), (4, target)))
            transitions.append(((5, source), (symbol, _OUT), (5, target)))
    for q in s_nfa.states:
        for op in var_ops:
            # Zone entry (first op), interior ops, and zone exit (last
            # op); the splitter state does not change on P's operations.
            transitions.append(((2, q), (op, _IN), (3, q)))
            transitions.append(((3, q), (op, _IN), (3, q)))
            transitions.append(((3, q), (op, _IN), (4, q)))
    finals = {(5, f) for f in s_nfa.finals}
    alphabet = {(symbol, bit)
                for symbol in doc_alphabet for bit in (_IN, _OUT)}
    alphabet |= {(op, _IN) for op in var_ops}
    states = {(1, s_nfa.initial)} | finals
    return NFA(alphabet, states, (1, s_nfa.initial), finals,
               transitions).trim()
