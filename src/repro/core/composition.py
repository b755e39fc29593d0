"""The composition ``P o S`` of a spanner and a splitter (Section 3).

``(P o S)(d)`` evaluates ``P`` on every substring extracted by the
splitter ``S`` and shifts the results back into ``d``.  Two layers are
provided:

* :func:`compose_semantics` -- the definition itself, executed on a
  concrete document (used by the runtime and as ground truth in tests);
* :func:`compose` -- the automaton-level construction of Lemmas C.1 and
  C.2: a VSet-automaton for ``P o S`` of polynomial size, built from
  the three-phase product of the proof (before the split, inside the
  split running ``P``, after the split).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Set

from repro.automata.nfa import EPSILON, NFA
from repro.core.spans import Span, SpanTuple
from repro.spanners.refwords import VarOp, gamma
from repro.spanners.vset_automaton import VSetAutomaton

Variable = Hashable
Symbol = Hashable


def splitter_variable(splitter: VSetAutomaton) -> Variable:
    """The unique variable ``x_S`` of a splitter (unary spanner)."""
    if len(splitter.variables) != 1:
        raise ValueError(
            f"a splitter must be unary, got arity {len(splitter.variables)}"
        )
    return next(iter(splitter.variables))


def splits_of(splitter: VSetAutomaton, document: str) -> Set[Span]:
    """``S(d)`` viewed as a set of spans (the paper's simplified view)."""
    variable = splitter_variable(splitter)
    return {t[variable] for t in splitter.evaluate(document)}


def compose_semantics(
    evaluate: Callable[[str], Set[SpanTuple]],
    splitter: VSetAutomaton,
    document: str,
) -> Set[SpanTuple]:
    """``(P o S)(d)`` by direct evaluation.

    ``evaluate`` is any function from documents to span relations (a
    compiled spanner, a black box, ...); the splitter must be a
    VSet-automaton so its spans can be enumerated.
    """
    results: Set[SpanTuple] = set()
    for span in splits_of(splitter, document):
        chunk = span.extract(document)
        for t in evaluate(chunk):
            results.add(t.shift(span))
    return results


def compose(spanner: VSetAutomaton, splitter: VSetAutomaton) -> VSetAutomaton:
    """A VSet-automaton for ``spanner o splitter`` (Lemma C.2).

    States are ``("pre", q_S)`` before the split opens, ``("mid", q_S,
    q_P)`` while the splitter variable is open and ``P`` runs on the
    chunk, and ``("post", q_S)`` afterwards.  The splitter is made
    functional first so that every accepting run opens and closes its
    variable exactly once.

    **Reachable only.**  The three-phase product is explored forward
    from ``("pre", q0_S)``, so a ``("mid", q_S, q_P)`` triple exists
    only if some run reaches it; Lemma C.2's automaton is the full
    ``|Q_S| x |delta_P|`` product, and the two differ exactly in states
    no run from the initial state visits — which accept nothing and
    were trimmed away by the previous construction after it had built
    them.  The transitions out of each reached state are the lemma's,
    unchanged, so the spanner is the same.  The result is trim, with
    integer states in discovery order.
    """
    if splitter_variable(splitter) in spanner.variables:
        splitter = splitter.rename_variables(
            {splitter_variable(splitter): ("xS-fresh",)}
        )
    s_nfa = splitter.valid_ref_nfa()
    p_nfa = spanner.nfa
    x = splitter_variable(splitter)
    open_x = VarOp(x, False)
    close_x = VarOp(x, True)
    doc_alphabet = spanner.doc_alphabet | splitter.doc_alphabet
    variables = spanner.variables

    # Each side's moves, sorted once by what they mean to the product:
    # the splitter's silent steps, its opening and closing of x and its
    # letters; the spanner's steps while the splitter stands still
    # (epsilon, variable operations) and its letters.
    nothing: Dict = {}
    s_moves = {}
    for q, by_symbol in s_nfa._delta.items():
        silent = opens = closes = ()
        letters = {}
        for symbol, targets in by_symbol.items():
            if symbol is EPSILON:
                silent = targets
            elif symbol == open_x:
                opens = targets
            elif symbol == close_x:
                closes = targets
            else:
                # A functional splitter has no other variable operations.
                letters[symbol] = targets
        s_moves[q] = (silent, opens, closes, letters)
    s_still = ((), (), (), nothing)
    p_moves = {}
    for p, by_symbol in p_nfa._delta.items():
        still, letters = {}, {}
        for symbol, targets in by_symbol.items():
            if symbol is EPSILON or isinstance(symbol, VarOp):
                still[symbol] = targets
            else:
                letters[symbol] = targets
        p_moves[p] = (still, letters)
    p_still = (nothing, nothing)
    p_initial, p_finals = p_nfa.initial, p_nfa.finals

    # States are numbered as the exploration discovers them, so the
    # nested products built on top (the validity filter, the extended
    # form, compositions of compositions) hash small integers.
    initial = ("pre", s_nfa.initial)
    number = {initial: 0}
    delta: Dict[int, Dict[Symbol, Set[int]]] = {}
    stack = [initial]
    while stack:
        state = stack.pop()
        phase, q = state[0], state[1]
        silent, opens, closes, s_letters = s_moves.get(q, s_still)
        if phase == "mid":
            p = state[2]
            still, p_letters = p_moves.get(p, p_still)
            row = {
                symbol: {("mid", q, p2) for p2 in p_targets}
                for symbol, p_targets in still.items()
            }
            quiet = {("mid", q2, p) for q2 in silent}
            if closes and p in p_finals:
                quiet.update(("post", q2) for q2 in closes)
            if quiet:
                row.setdefault(EPSILON, set()).update(quiet)
            for symbol, s_targets in s_letters.items():
                p_targets = p_letters.get(symbol)
                if p_targets:
                    row[symbol] = {
                        ("mid", q2, p2)
                        for q2 in s_targets for p2 in p_targets
                    }
        else:
            row = {
                symbol: {(phase, q2) for q2 in s_targets}
                for symbol, s_targets in s_letters.items()
            }
            quiet = {(phase, q2) for q2 in silent}
            if phase == "pre":
                quiet.update(("mid", q2, p_initial) for q2 in opens)
            if quiet:
                row[EPSILON] = quiet
        if row:
            numbered = delta[number[state]] = {}
            for symbol, targets in row.items():
                ids = numbered[symbol] = set()
                for target in targets:
                    known = number.get(target)
                    if known is None:
                        known = number[target] = len(number)
                        stack.append(target)
                    ids.add(known)
    finals = {number[("post", q)] for q in s_nfa.finals
              if ("post", q) in number}
    nfa = NFA.from_delta(
        doc_alphabet | gamma(variables), 0, finals, delta
    ).trim()
    return VSetAutomaton(doc_alphabet, variables, nfa)
