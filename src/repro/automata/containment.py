"""Language containment, equivalence, and universality for NFAs.

These are the PSPACE primitives underlying Theorem 4.1 (spanner
containment), Theorem 5.1 (split-correctness), and the Section 6
reasoning problems.  The implementation is the standard on-the-fly
product with a determinized right-hand side: to decide ``L(A) <= L(B)``
we search for a state of ``A`` reachable together with a ``B``-subset
containing no final state while ``A`` accepts.  Only the reachable part
of the subset lattice is materialized, which is exactly the polynomial-
space strategy (and fast in practice on the instances the framework
produces).
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Optional, Sequence, Tuple

from repro.automata.nfa import NFA, universal_nfa

Symbol = Hashable

#: What a :func:`containment_search` given a ``limit`` returns in place
#: of a word when it stops with the question undecided.
UNDECIDED = "undecided"


def nfa_contains(
    left: NFA, right: NFA, alphabet: Optional[frozenset] = None
) -> bool:
    """Decide ``L(left) <= L(right)``.

    ``alphabet`` defaults to the union of both alphabets; words over
    symbols missing from ``right``'s alphabet simply cannot be accepted
    by ``right``.
    """
    return containment_counterexample(left, right, alphabet) is None


def containment_counterexample(
    left: NFA, right: NFA, alphabet: Optional[frozenset] = None
) -> Optional[Tuple[Symbol, ...]]:
    """A shortest word in ``L(left) - L(right)``, or ``None``."""
    return containment_search(left, right, alphabet)[0]


def containment_search(
    left: NFA, right: NFA, alphabet: Optional[frozenset] = None,
    limit: Optional[int] = None,
) -> Tuple[Optional[Tuple[Symbol, ...]], int]:
    """:func:`containment_counterexample` together with the number of
    subset pairs the search explored (what certification reports as the
    cost of its PSPACE step).

    Runs a BFS over pairs ``(P, Q)`` where ``P`` is the subset of
    ``left``-states and ``Q`` the subset of ``right``-states reached on
    the same word (both epsilon-closed).  A pair with ``P`` accepting
    and ``Q`` not accepting yields the counterexample.  Only symbols
    that leave ``P`` are tried — any other symbol empties ``P``, and a
    word ``left`` cannot read is no counterexample — and each pair
    remembers the pair and symbol it was first reached by, so the word
    is spelled out once, for the pair that needs it.

    With a ``limit`` the search gives up once it has reached more than
    ``limit`` pairs and returns :data:`UNDECIDED` in place of a word:
    what a caller that must answer in bounded time (lowering on a
    server's loop thread) passes, at the price of an undecided answer.
    """
    start = (
        left.epsilon_closure({left.initial}),
        right.epsilon_closure({right.initial}),
    )
    reached_by = {start: None}
    queue: deque = deque([start])
    while queue:
        if limit is not None and len(reached_by) > limit:
            return UNDECIDED, len(reached_by)
        pair = queue.popleft()
        p_set, q_set = pair
        if (p_set & left.finals) and not (q_set & right.finals):
            word = []
            while reached_by[pair] is not None:
                pair, symbol = reached_by[pair]
                word.append(symbol)
            return tuple(reversed(word)), len(reached_by)
        for symbol, p_next in left.steps_from(p_set).items():
            if alphabet is not None and symbol not in alphabet:
                continue
            key = (p_next, right.step(q_set, symbol))
            if key not in reached_by:
                reached_by[key] = (pair, symbol)
                queue.append(key)
    return None, len(reached_by)


def nfa_equivalent(left: NFA, right: NFA) -> bool:
    """Decide ``L(left) == L(right)``."""
    return nfa_contains(left, right) and nfa_contains(right, left)


def nfa_universal(nfa: NFA, alphabet: Optional[frozenset] = None) -> bool:
    """Decide ``L(nfa) == alphabet*`` (the PSPACE-complete problem [17]).

    This is the source problem of the paper's hardness reductions
    (Theorems 4.2, 5.1, 6.2, Lemma 5.4); having a direct decision
    procedure lets the tests validate the reductions end to end.  It is
    the containment of ``alphabet*`` (just the empty word over an empty
    alphabet) in ``L(nfa)``.
    """
    if alphabet is None:
        alphabet = nfa.alphabet
    return containment_search(universal_nfa(alphabet), nfa)[0] is None


def union_universal(dfas: Sequence, alphabet: frozenset) -> bool:
    """Decide whether the union of the given DFAs/NFAs covers ``alphabet*``.

    DFA union universality is the PSPACE-complete problem of Kozen [17]
    that the paper reduces *from*; the tests use this direct decider to
    label reduction instances with their ground truth.
    """
    union: Optional[NFA] = None
    for automaton in dfas:
        nfa = automaton.to_nfa() if hasattr(automaton, "to_nfa") else automaton
        union = nfa if union is None else union.union(nfa)
    if union is None:
        return False
    return nfa_universal(union, alphabet)
