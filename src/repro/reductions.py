"""The paper's hardness reductions as instance generators.

Every PSPACE-hardness proof in the paper is constructive: it maps an
instance of a known-hard problem (DFA union universality [17], regular
expression containment/universality [16, 22]) to an instance of a
split-correctness problem with the same answer.  Coding the reductions
serves two purposes here:

* **validation** -- the tests run both the source-problem decider and
  the framework procedure on the reduction image and compare;
* **benchmarking** -- the reductions produce scalable families that
  exercise the PSPACE procedures far from the tractable fragment
  (benchmarks T2/T4).

All constructions return compiled VSet-automata over the enlarged
alphabet ``Sigma + {a}`` exactly as in the proofs.
"""

from __future__ import annotations

from typing import Hashable, Sequence, Tuple

from repro.automata.dfa import DFA
from repro.automata.nfa import EPSILON, NFA
from repro.spanners.refwords import Close, Open, gamma
from repro.spanners.regex_formulas import compile_regex_formula
from repro.spanners.vset_automaton import VSetAutomaton

Symbol = Hashable

#: The padding symbol added to the alphabet by the reductions.
PAD = "a"


def _dfa_as_nfa(dfa: DFA) -> NFA:
    return dfa.to_nfa().trim()


def _literal_chain(symbol: Symbol, count: int, alphabet) -> NFA:
    """NFA for the word ``symbol^count``."""
    transitions = [(i, symbol, i + 1) for i in range(count)]
    return NFA(alphabet, range(count + 1), 0, [count], transitions)


def union_universality_instance(
    dfas: Sequence[DFA], alphabet: Sequence[str]
) -> bool:
    """Ground truth for the source problem ``Sigma* <= U L(A_i)``."""
    from repro.automata.containment import union_universal

    return union_universal(dfas, frozenset(alphabet))


# ----------------------------------------------------------------------
# Theorem 4.2: containment of weakly deterministic functional VSAs
# ----------------------------------------------------------------------

def weak_determinism_containment_instance(
    dfas: Sequence[DFA], alphabet: Sequence[str]
) -> Tuple[VSetAutomaton, VSetAutomaton]:
    """The reduction of Theorem 4.2.

    Returns ``(A, A')`` with variables ``x_1..x_n`` such that
    ``A(d) <= A'(d)`` for all ``d`` iff the union of the DFAs is
    universal.  ``A`` selects the whole document in every variable
    (``x1{x2{...xn{Sigma*}...}}``); every branch ``i`` of ``A'`` opens
    ``x_i`` first, then the remaining variables in increasing order,
    and accepts ``L(A_i)`` inside.  Both are weakly deterministic and
    functional but use different variable orderings — the source of
    the hardness.
    """
    n = len(dfas)
    if n == 0:
        raise ValueError("need at least one DFA")
    doc_alphabet = frozenset(alphabet)
    variables = [f"x{i}" for i in range(1, n + 1)]
    ext = doc_alphabet | gamma(variables)

    # A: open all variables in order, accept Sigma*, close in order.
    transitions = []
    state = 0
    for i, var in enumerate(variables):
        transitions.append((state, Open(var), state + 1))
        state += 1
    loop = state
    for symbol in doc_alphabet:
        transitions.append((loop, symbol, loop))
    for var in reversed(variables):
        transitions.append((state, Close(var), state + 1))
        state += 1
    a = VSetAutomaton(
        doc_alphabet, variables,
        NFA(ext, range(state + 1), 0, [state], transitions),
    )

    # A': one branch per i, opening x_i before the others.
    branch_nfas = []
    for i in range(n):
        order = [variables[i]] + [v for j, v in enumerate(variables)
                                  if j != i]
        inner = _dfa_as_nfa(dfas[i])
        transitions = []
        states = set()
        prev = ("open", i, 0)
        states.add(prev)
        for k, var in enumerate(order):
            nxt = ("open", i, k + 1)
            transitions.append((prev, Open(var), nxt))
            states.add(nxt)
            prev = nxt
        # plug in L(A_i)
        for source, symbol, target in inner.transitions():
            transitions.append((("in", i, source), symbol,
                                ("in", i, target)))
        transitions.append((prev, EPSILON, ("in", i, inner.initial)))
        close_order = sorted(variables)
        close_prev = [("in", i, f) for f in inner.finals]
        for k, var in enumerate(reversed(order)):
            nxt = ("close", i, k)
            for source in close_prev:
                transitions.append((source, Close(var), nxt))
            close_prev = [nxt]
            states.add(nxt)
        final = close_prev[0] if close_prev else None
        nfa = NFA(ext, states, ("open", i, 0),
                  [final] if final else [], transitions)
        branch_nfas.append(nfa)
    combined = branch_nfas[0]
    for nfa in branch_nfas[1:]:
        combined = combined.union(nfa)
    lifted = NFA(ext, combined.states, combined.initial, combined.finals,
                 combined.transitions())
    a_prime = VSetAutomaton(doc_alphabet, variables, lifted)
    return a, a_prime


# ----------------------------------------------------------------------
# Theorem 5.1 / Lemma 5.4: split-correctness and the cover condition
# ----------------------------------------------------------------------

def split_correctness_instance(
    dfas: Sequence[DFA], alphabet: Sequence[str]
) -> Tuple[VSetAutomaton, VSetAutomaton, VSetAutomaton]:
    """The reduction of Theorem 5.1 (also Lemma 5.4's cover instance).

    Over ``Sigma' = Sigma + {a}`` build ``P = a^n . y{Sigma*}``,
    ``S = x{a^n A_1} + a x{a^{n-1} A_2} + ... + a^{n-1} x{a A_n}``, and
    ``P_S = a* . y{Sigma*}``.  Then ``P = P_S o S`` iff the union of
    the DFAs covers ``Sigma*``.  (The paper names the split-spanner's
    variable ``z``; it must match ``P``'s for the equality to type,
    so ``y`` is used.)
    """
    n = len(dfas)
    if n == 0:
        raise ValueError("need at least one DFA")
    if PAD in alphabet:
        raise ValueError(f"source alphabet must not contain {PAD!r}")
    sigma = frozenset(alphabet)
    sigma_prime = sigma | {PAD}
    ext_p = sigma_prime | gamma(["y"])
    ext_s = sigma_prime | gamma(["x"])

    # P = a^n y{Sigma*} (captures only source-alphabet suffixes).
    transitions = [(i, PAD, i + 1) for i in range(n)]
    transitions.append((n, Open("y"), n + 1))
    for symbol in sigma:
        transitions.append((n + 1, symbol, n + 1))
    transitions.append((n + 1, Close("y"), n + 2))
    p = VSetAutomaton(
        sigma_prime, ["y"],
        NFA(ext_p, range(n + 3), 0, [n + 2], transitions),
    )

    # S: branch i (1-based) reads a^{i-1}, opens x, reads a^{n-i+1},
    # then L(A_i), closes x.
    branches = []
    for i in range(1, n + 1):
        prefix = _literal_chain(PAD, i - 1, ext_s)
        inner_pad = _literal_chain(PAD, n - i + 1, ext_s)
        lang = _dfa_as_nfa(dfas[i - 1])
        lang = NFA(ext_s, lang.states, lang.initial, lang.finals,
                   lang.transitions())
        body = inner_pad.concatenate(lang)
        # x{ body }
        states = set(body.states) | {"xo", "xc"}
        transitions = list(body.transitions())
        transitions.append(("xo", Open("x"), body.initial))
        for final in body.finals:
            transitions.append((final, Close("x"), "xc"))
        wrapped = NFA(ext_s, states, "xo", ["xc"], transitions)
        branches.append(prefix.concatenate(wrapped))
    combined = branches[0]
    for branch in branches[1:]:
        combined = combined.union(branch)
    s = VSetAutomaton(
        sigma_prime, ["x"],
        NFA(ext_s, combined.states, combined.initial, combined.finals,
            combined.transitions()),
    )

    # P_S = a* y{Sigma*}.
    transitions = [(0, PAD, 0), (0, Open("y"), 1)]
    for symbol in sigma:
        transitions.append((1, symbol, 1))
    transitions.append((1, Close("y"), 2))
    p_s = VSetAutomaton(
        sigma_prime, ["y"],
        NFA(ext_p, range(3), 0, [2], transitions),
    )
    return p, p_s, s


# ----------------------------------------------------------------------
# Theorems 5.15 and 5.16: splittability and self-splittability
# ----------------------------------------------------------------------

def splittability_instance(
    pattern_r1: str, pattern_r2: str, alphabet: Sequence[str]
) -> Tuple[VSetAutomaton, VSetAutomaton]:
    """Theorem 5.15's reduction from regular-expression containment.

    ``P`` is the Boolean spanner for ``r1`` and ``S = x{r2}``; ``P`` is
    splittable by ``S`` iff ``L(r1) <= L(r2)``.
    """
    p = compile_regex_formula(pattern_r1, alphabet)
    if p.variables:
        raise ValueError("r1 must be variable-free")
    s = compile_regex_formula("x{%s}" % pattern_r2, alphabet)
    return p, s


def self_splittability_instance(
    formula_r1: str, formula_r2: str, alphabet: Sequence[str]
) -> Tuple[VSetAutomaton, VSetAutomaton]:
    """Theorem 5.16's reduction, corrected.

    Over ``Sigma' = Sigma + {a}``: ``P = r1 + (a . r2)`` and
    ``S = a? x{Sigma*}`` with the split body over the *source*
    alphabet.  The paper claims ``P`` is self-splittable by ``S`` iff
    ``[[r1]] <= [[r2]]``; running the decision procedure against brute
    force exposes counterexamples to both readings of the proof (e.g.
    ``r1 = b*``, ``r2 = (b|c)*``, document ``ac``): the correct
    criterion for this construction is ``[[r1]] == [[r2]]``
    (*equivalence*).  PSPACE-hardness is unaffected — containment
    reduces to equivalence via ``r1 <= r2  iff  r1 + r2 == r2``.
    """
    if PAD in alphabet:
        raise ValueError(f"source alphabet must not contain {PAD!r}")
    sigma_prime = frozenset(alphabet) | {PAD}
    r1 = compile_regex_formula(formula_r1, sigma_prime)
    r2 = compile_regex_formula(formula_r2, sigma_prime)
    if r1.variables != r2.variables:
        raise ValueError("r1 and r2 must share their variables")
    from repro.spanners.algebra import concat_language_left, union as sp_union

    pad_nfa = _literal_chain(PAD, 1, sigma_prime)
    p = sp_union(r1, concat_language_left(pad_nfa, r2))
    # The split body ranges over the *source* alphabet only: the fresh
    # padding symbol marks the optional prefix and nothing else.
    body = "|".join("\\" + c if c in "()|*+?.~!\\{}" else c
                    for c in sorted(alphabet))
    s = compile_regex_formula(f"{PAD}?x{{({body})*}}", sigma_prime)
    return p, s
