"""Splittability: does *some* split-spanner work? (Section 5.2.)

For disjoint splitters the paper characterizes splittability via the
*canonical split-spanner* ``P_S^can`` (Proposition 5.9): on a chunk
``d`` it outputs every tuple that ``P`` outputs inside some context
document from which ``S`` extracts exactly ``d``.  Lemma 5.12 then
shows that ``P`` is splittable by a disjoint ``S`` iff
``P = P_S^can o S``, which together with Theorem 5.1 gives the PSPACE
procedure of Theorem 5.15.

The construction follows Appendix C's proof:  ``P'`` simulates ``P``
in three phases (before / inside / after the split region), ``S'`` is
the splitter with self-loops on the spanner's variable operations, the
``Start`` and ``End`` sets collect the state pairs reachable before
the split opens and co-reachable after it closes, and ``P_S^can`` is a
union of cross products between them.  (The paper's transition table
for phase 2 of ``P'`` lists only ``Gamma_V`` labels; letters must
clearly be included as well, which we do.)
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Set, Tuple

from repro.automata.nfa import EPSILON, NFA
from repro.core.composition import splitter_variable
from repro.core.cover import cover_condition
from repro.core.split_correctness import split_correct_general
from repro.spanners.refwords import VarOp, gamma
from repro.spanners.vset_automaton import VSetAutomaton


def canonical_split_spanner(
    spanner: VSetAutomaton, splitter: VSetAutomaton
) -> VSetAutomaton:
    """Proposition 5.9: the canonical split-spanner ``P_S^can``.

    ``P_S^can(d) = {t | exists d', s in S(d'), d'_s = d,
    (t >> s) in P(d')}``.  Polynomial-size construction.
    """
    p_nfa = spanner.valid_ref_nfa()
    s_nfa = splitter.valid_ref_nfa()
    x = splitter_variable(splitter)
    open_x, close_x = VarOp(x, False), VarOp(x, True)
    doc_alphabet = spanner.doc_alphabet | splitter.doc_alphabet
    variables = spanner.variables

    # --- Start: pairs (q_S, q_P) reachable on a common pure-Sigma
    # prefix, after both take the split-opening move (P's being a
    # silent phase switch).
    start_pairs = _sigma_product_reachable(
        s_nfa, p_nfa, {(s_nfa.initial, p_nfa.initial)}, doc_alphabet,
        forward=True,
    )
    start: Set[Tuple] = set()
    for q_s, q_p in start_pairs:
        for q_s2 in s_nfa.successors(q_s, open_x):
            start.add((q_s2, q_p))

    # --- End: pairs from which, after the split closes, both reach
    # acceptance on a common pure-Sigma suffix.
    end_seeds = {
        (q_s, q_p)
        for q_s in s_nfa.states
        for q_p in p_nfa.states
        if q_s in s_nfa.finals and q_p in p_nfa.finals
    }
    end_sigma = _sigma_product_reachable(
        s_nfa, p_nfa, end_seeds, doc_alphabet, forward=False
    )
    end: Set[Tuple] = set()
    for q_s in s_nfa.states:
        for q_s2 in s_nfa.successors(q_s, close_x):
            for q_s3, q_p in end_sigma:
                if q_s3 == q_s2:
                    end.add((q_s, q_p))

    # --- The mid-region product: S' (with self-loops on Gamma_V) and
    # P (phase 2), running jointly between Start and End.
    alphabet = doc_alphabet | gamma(variables)
    initial = ("can-init",)
    transitions = [(initial, EPSILON, pair) for pair in start]
    for q_s in s_nfa.states:
        for p_source, p_symbol, p_target in p_nfa.transitions():
            if p_symbol is EPSILON or isinstance(p_symbol, VarOp):
                transitions.append(((q_s, p_source), p_symbol,
                                    (q_s, p_target)))
    for s_source, s_symbol, s_target in s_nfa.transitions():
        if s_symbol is EPSILON:
            for q_p in p_nfa.states:
                transitions.append(((s_source, q_p), EPSILON,
                                    (s_target, q_p)))
        elif isinstance(s_symbol, VarOp):
            continue
        else:
            for p_source, p_symbol, p_target in p_nfa.transitions():
                if p_symbol == s_symbol:
                    transitions.append(((s_source, p_source), s_symbol,
                                        (s_target, p_target)))
    states = {initial} | set(end)
    nfa = NFA(alphabet, states, initial, end, transitions).trim()
    return VSetAutomaton(doc_alphabet, variables, nfa).relabel()


def _sigma_product_reachable(
    s_nfa: NFA,
    p_nfa: NFA,
    seeds: Set[Tuple],
    doc_alphabet,
    forward: bool,
) -> Set[Tuple]:
    """Pairs connected to ``seeds`` by a common pure-Sigma word.

    ``forward=True`` computes pairs reachable *from* the seeds;
    ``forward=False`` pairs that can *reach* a seed.  Epsilon moves of
    either automaton are included; variable operations are not (the
    context outside the split carries no operations in the canonical
    construction).
    """
    if forward:
        def moves(q_s, q_p):
            for q_s2 in s_nfa.successors(q_s, EPSILON):
                yield (q_s2, q_p)
            for q_p2 in p_nfa.successors(q_p, EPSILON):
                yield (q_s, q_p2)
            for symbol in doc_alphabet:
                for q_s2 in s_nfa.successors(q_s, symbol):
                    for q_p2 in p_nfa.successors(q_p, symbol):
                        yield (q_s2, q_p2)
    else:
        s_back, p_back = _backward_index(s_nfa), _backward_index(p_nfa)

        def moves(q_s, q_p):
            for q_s2 in s_back.get((q_s, EPSILON), ()):
                yield (q_s2, q_p)
            for q_p2 in p_back.get((q_p, EPSILON), ()):
                yield (q_s, q_p2)
            for symbol in doc_alphabet:
                for q_s2 in s_back.get((q_s, symbol), ()):
                    for q_p2 in p_back.get((q_p, symbol), ()):
                        yield (q_s2, q_p2)

    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        q_s, q_p = queue.popleft()
        for pair in moves(q_s, q_p):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return seen


def _backward_index(nfa: NFA):
    index = {}
    for source, symbol, target in nfa.transitions():
        index.setdefault((target, symbol), set()).add(source)
    return index


def is_splittable(
    spanner: VSetAutomaton,
    splitter: VSetAutomaton,
    require_disjoint: bool = True,
) -> bool:
    """Theorem 5.15: splittability for disjoint splitters (PSPACE).

    By Lemma 5.12 the three conditions (splittable, splittability
    condition, ``P = P_S^can o S``) coincide for disjoint splitters, so
    the test builds the canonical split-spanner and checks
    split-correctness.  ``require_disjoint=True`` verifies disjointness
    (Proposition 5.5) and raises on violation — decidability without
    it is open (Section 8).
    """
    if require_disjoint:
        from repro.splitters.disjointness import is_disjoint

        if not is_disjoint(splitter):
            raise ValueError(
                "splittability is only characterized for disjoint "
                "splitters (the general case is open, Section 8)"
            )
    if not cover_condition(spanner, splitter, disjoint=True):
        return False
    canonical = canonical_split_spanner(spanner, splitter)
    return split_correct_general(spanner, canonical, splitter)


def splittability_witness(
    spanner: VSetAutomaton, splitter: VSetAutomaton
) -> Optional[VSetAutomaton]:
    """The canonical split-spanner when ``P`` is splittable, else None.

    By Lemma 5.14 every valid split-spanner contains ``P_S^can``, so
    returning the canonical one is the natural normal form.
    """
    if is_splittable(spanner, splitter):
        return canonical_split_spanner(spanner, splitter)
    return None
