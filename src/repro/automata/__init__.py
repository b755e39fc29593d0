"""Classical automata substrate.

Everything in the split-correctness framework ultimately reduces to
questions about regular languages: spanner containment is ref-word
language containment after canonicalization (Theorem 4.1 of the paper),
the tractable cover-condition test is containment of unambiguous finite
automata (Lemma 5.6), and the hardness results are reductions from DFA
union universality.  This subpackage provides the finite-automaton
machinery those procedures are built on:

* :mod:`repro.automata.nfa` -- nondeterministic finite automata with
  epsilon transitions, products, unions, and subset construction;
* :mod:`repro.automata.dfa` -- deterministic automata, minimization and
  complementation;
* :mod:`repro.automata.regex` -- the one grammar of regular expressions
  and regex formulas (a plain regex is a formula without captures; braces
  are metacharacters), their AST, and ``parse_regex`` / ``regex_to_nfa``
  for the capture-free case (one parser, one Thompson construction);
* :mod:`repro.automata.containment` -- language containment and
  equivalence via on-the-fly determinization (the PSPACE procedure);
* :mod:`repro.automata.ufa` -- ambiguity testing and the polynomial-time
  containment test for unambiguous automata (Stearns & Hunt [33]);
* :mod:`repro.automata.compiled` -- the **compiled kernel**: every
  automaton lowers once onto a dense integer/bitset IR (states and
  symbols relabeled to ints, state sets as Python-int bitsets, epsilon
  closures precomputed, subset steps as table lookups + bitwise OR)
  with a lazily memoized, LRU-bounded subset construction
  (:class:`repro.automata.compiled.LazyDFA`).  ``NFA.accepts``,
  ``NFA.is_empty``, ``NFA.to_dfa``, ``NFA.product_is_empty`` and
  ``VSetAutomaton.evaluate`` all execute on this shared IR; the
  dict-of-sets interpreter it replaced is the reference semantics in
  ``tests/reference.py`` that the property tests validate the kernel
  against.

Lowering happens when an automaton is first queried (and, in the
runtime, once per certified plan at certify time — never per chunk);
``add_transition`` invalidates the cached artifact.
"""

from repro.automata.nfa import EPSILON, NFA
from repro.automata.compiled import (
    CompiledNFA,
    CompiledVSetAutomaton,
    LazyDFA,
    compile_nfa,
    compile_vset_automaton,
)
from repro.automata.dfa import DFA
from repro.automata.regex import regex_to_nfa, parse_regex
from repro.automata.containment import (
    nfa_contains,
    nfa_equivalent,
    nfa_universal,
)
from repro.automata.ufa import is_unambiguous, ufa_contains, count_words_by_length

__all__ = [
    "EPSILON",
    "NFA",
    "DFA",
    "CompiledNFA",
    "CompiledVSetAutomaton",
    "LazyDFA",
    "compile_nfa",
    "compile_vset_automaton",
    "regex_to_nfa",
    "parse_regex",
    "nfa_contains",
    "nfa_equivalent",
    "nfa_universal",
    "is_unambiguous",
    "ufa_contains",
    "count_words_by_length",
]
