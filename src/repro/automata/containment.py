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

from repro.automata.nfa import NFA

Symbol = Hashable


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
    """A shortest word in ``L(left) - L(right)``, or ``None``.

    Runs a BFS over pairs ``(P, Q)`` where ``P`` is the subset of
    ``left``-states and ``Q`` the subset of ``right``-states reached on
    the same word (both epsilon-closed).  A pair with ``P`` accepting
    and ``Q`` not accepting yields the counterexample.
    """
    if alphabet is None:
        alphabet = left.alphabet | right.alphabet
    start = (
        left.epsilon_closure({left.initial}),
        right.epsilon_closure({right.initial}),
    )
    seen = {start}
    queue: deque = deque([(start, ())])
    while queue:
        (p_set, q_set), word = queue.popleft()
        if (p_set & left.finals) and not (q_set & right.finals):
            return word
        for symbol in alphabet:
            p_next = left.step(p_set, symbol)
            if not p_next:
                continue
            q_next = right.step(q_set, symbol)
            key = (p_next, q_next)
            if key not in seen:
                seen.add(key)
                queue.append((key, word + (symbol,)))
    return None


def nfa_equivalent(left: NFA, right: NFA) -> bool:
    """Decide ``L(left) == L(right)``."""
    return nfa_contains(left, right) and nfa_contains(right, left)


def nfa_universal(nfa: NFA, alphabet: Optional[frozenset] = None) -> bool:
    """Decide ``L(nfa) == alphabet*`` (the PSPACE-complete problem [17]).

    This is the source problem of the paper's hardness reductions
    (Theorems 4.2, 5.1, 6.2, Lemma 5.4); having a direct decision
    procedure lets the tests validate the reductions end to end.
    """
    if alphabet is None:
        alphabet = nfa.alphabet
    start = nfa.epsilon_closure({nfa.initial})
    if not (start & nfa.finals):
        return False
    seen = {start}
    queue: deque = deque([start])
    while queue:
        current = queue.popleft()
        for symbol in alphabet:
            nxt = nfa.step(current, symbol)
            if not (nxt & nfa.finals):
                return False
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


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
