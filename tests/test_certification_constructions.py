"""Certification's constructions against their references.

``compose`` explores only the reachable part of Lemma C.2's product,
the extended form starts closures only where blocks start, and both are
filled in bulk; ``tests/reference.py`` keeps the constructions they
replaced.  Every decision procedure built on them must answer exactly
as it does over the references — on generated regex formulas (empty
captures and two variables included), on a hand-built automaton that is
deliberately *not* functional, and against every registry splitter plus
a non-disjoint token 2-gram one.
"""

from contextlib import contextmanager

import hypothesis.strategies as st
import pytest
from hypothesis import given

from benchmarks.ledger.corpora import QZ_ALPHABET, QZ_PATTERN
from repro.automata.containment import nfa_equivalent, union_universal
from repro.automata.dfa import random_dfa
from repro.automata.nfa import NFA
from repro.core import cover, split_correctness
from repro.core.composition import compose, compose_semantics
from repro.core.cover import cover_condition_general
from repro.core.self_splittability import is_self_splittable
from repro.core.split_correctness import (
    split_correct_general,
    split_correct_witness,
)
from repro.core.splittability import is_splittable
from repro.reductions import split_correctness_instance
from repro.spanners.determinism import determinize, is_dfvsa
from repro.spanners.refwords import Close, Open, gamma
from repro.spanners.regex_formulas import compile_regex_formula
from repro.spanners.vset_automaton import VSetAutomaton
from repro.splitters.builders import (
    registry,
    separator_splitter,
    token_ngram_splitter,
)
from tests.conftest import _formula_node
from tests.reference import reference_compose, reference_extended_nfa

#: Wide enough for every registry splitter (space/newline tokens,
#: ``.`` sentences, newline paragraphs, ``#`` records).
ALPHABET = frozenset("ab .\n#")

SPLITTERS = dict(registry(),
                 ngram2=lambda alphabet: token_ngram_splitter(alphabet, 2))

#: Formulas the generator is unlikely to hit: captures of the empty
#: span, alone and next to a second variable, and a nested pair.
EMPTY_CAPTURES = [".*y{}.*", "y{}", ".*x{a+}y{}.*", ".*y{a|}b.*",
                  "(.*( |\\.))?y{a*}", "x{y{}a}.*"]


def non_functional_vsa() -> VSetAutomaton:
    """``a* y{a*} b*`` plus two families of *invalid* accepted
    ref-words: ``b`` skips from 0 to the final state without ever
    opening ``y``, and the final state may open ``y`` a second time."""
    transitions = [
        (0, "a", 0), (0, Open("y"), 1), (1, "a", 1), (1, Close("y"), 2),
        (2, "b", 2), (0, "b", 2), (2, Open("y"), 1),
    ]
    nfa = NFA(ALPHABET | gamma(["y"]), range(3), 0, [2], transitions)
    return VSetAutomaton(ALPHABET, ["y"], nfa)


@st.composite
def spanner_builders_st(draw, variables=None):
    """A zero-argument builder of a spanner (each side of a
    differential builds its own instance: derived forms are memoised on
    the automaton) together with its variable set."""
    if variables is None:
        kind = draw(st.sampled_from(["formula", "formula", "empty", "hand"]))
        if kind == "hand":
            return non_functional_vsa, frozenset("y")
        if kind == "empty":
            pattern = draw(st.sampled_from(EMPTY_CAPTURES))
            built = compile_regex_formula(pattern, ALPHABET)
            return (lambda: compile_regex_formula(pattern, ALPHABET),
                    built.variables)
        variables = frozenset(["x", "y"][: draw(st.integers(0, 2))])
    node = _formula_node(draw, draw(st.integers(1, 3)), variables)
    return lambda: compile_regex_formula(node, ALPHABET), variables


splitter_names_st = st.sampled_from(sorted(SPLITTERS))
documents_st = st.lists(st.text(alphabet=sorted(ALPHABET), max_size=6),
                        min_size=1, max_size=4)


@contextmanager
def reference_constructions():
    """Run the decision procedures over the constructions of
    ``tests/reference.py`` (give them automata of their own)."""
    patched = pytest.MonkeyPatch()
    patched.setattr(split_correctness, "compose", reference_compose)
    patched.setattr(cover, "compose", reference_compose)
    patched.setattr(VSetAutomaton, "_build_extended_nfa",
                    reference_extended_nfa)
    try:
        yield
    finally:
        patched.undo()


@given(spanner_builders_st(), splitter_names_st, documents_st)
def test_compose_equals_its_definition(spanner, name, documents):
    build, _ = spanner
    p, s = build(), SPLITTERS[name](ALPHABET)
    composed = compose(p, s)
    for document in documents:
        assert composed.evaluate(document) == compose_semantics(
            p.evaluate, s, document)


@given(spanner_builders_st(), splitter_names_st)
def test_extended_forms_are_language_equal_to_the_reference(spanner, name):
    build, _ = spanner
    p = build()
    composed = compose(p, SPLITTERS[name](ALPHABET))
    assert composed.state_count() == reference_compose(
        build(), SPLITTERS[name](ALPHABET)).state_count()
    for automaton in (p, composed):
        built = automaton.extended_nfa()
        reference = reference_extended_nfa(automaton)
        assert nfa_equivalent(built, reference)
        assert len(built.states) == len(reference.states)


@given(st.data(), splitter_names_st)
def test_verdicts_match_the_reference_constructions(data, name):
    build, variables = data.draw(spanner_builders_st())
    build_split, _ = data.draw(spanner_builders_st(variables))

    def verdicts():
        p, p_s, s = build(), build_split(), SPLITTERS[name](ALPHABET)
        return (
            split_correct_general(p, p_s, s),
            is_self_splittable(p, s),
            is_splittable(p, s, require_disjoint=False),
            cover_condition_general(p, s),
            split_correct_witness(p, p_s, s),
        )

    *decided, witness = verdicts()
    with reference_constructions():
        *expected, reference_witness = verdicts()
    assert decided == expected
    assert (witness is None) == (reference_witness is None)
    if witness is not None:
        # Equally short witnesses may differ; each must be a real one.
        document, found = witness
        document = "".join(document)
        p, p_s, s = build(), build_split(), SPLITTERS[name](ALPHABET)
        assert (found in p.evaluate(document)) != (
            found in compose_semantics(p_s.evaluate, s, document))


@given(spanner_builders_st(), documents_st)
def test_determinize_is_a_dfvsa_for_the_same_spanner(spanner, documents):
    build, _ = spanner
    automaton = build()
    deterministic = determinize(automaton)
    assert is_dfvsa(deterministic)
    for document in documents:
        assert deterministic.evaluate(document) == automaton.evaluate(
            document)


@pytest.mark.parametrize("branches", [1, 2, 3])
def test_theorem_5_1_reduction_instances_keep_their_verdicts(branches):
    """``bench_t2``'s scaling family: ``P = P_S o S`` iff the DFAs'
    union is universal."""
    sigma = ["b", "c"]
    dfas = [random_dfa(sigma, 3, seed=17 + k) for k in range(branches)]
    verdict = split_correct_general(*split_correctness_instance(dfas, sigma))
    with reference_constructions():
        expected = split_correct_general(
            *split_correctness_instance(dfas, sigma))
    assert verdict == expected == union_universal(dfas, frozenset(sigma))


def test_certifying_the_ledger_program_builds_a_third_of_the_reference(
        monkeypatch):
    """A work count, not a stopwatch: transitions handed to any ``NFA``
    while deciding ``P = P o S`` for the ledger's ``qz`` program, against
    those the reference constructions hand over for the same automata."""
    materialised = []
    install = NFA._install

    def counting(self, alphabet, states, initial, finals, delta):
        materialised.append(sum(len(targets) for row in delta.values()
                                for targets in row.values()))
        install(self, alphabet, states, initial, finals, delta)

    def fresh():
        return (compile_regex_formula(QZ_PATTERN, QZ_ALPHABET),
                separator_splitter(frozenset(QZ_ALPHABET), "."))

    (p, s), (reference_p, reference_s) = fresh(), fresh()
    monkeypatch.setattr(NFA, "_install", counting)
    assert is_self_splittable(p, s)
    built = sum(materialised)
    del materialised[:]
    composed = reference_compose(reference_p, reference_s)
    reference_extended_nfa(reference_p)
    reference_extended_nfa(composed)
    assert 0 < 3 * built <= sum(materialised)
