"""Tests for VSet-automata: semantics, functionality, canonical form."""

import pytest
from hypothesis import given

from repro.automata.nfa import EPSILON, NFA
from repro.core.spans import Span, SpanTuple
from repro.spanners.refwords import Close, Open, gamma
from repro.spanners.regex_formulas import compile_regex_formula
from repro.spanners.vset_automaton import (
    VSetAutomaton,
    from_extended_nfa,
)
from tests.conftest import formula_nodes_st
from tests.reference import documents_upto

AB = frozenset("ab")


def hand_built_vsa():
    """x{a*} built by hand: q0 -x|-> q1 (loop a) -(-|x)-> q2."""
    alphabet = AB | gamma(["x"])
    transitions = [
        (0, Open("x"), 1),
        (1, "a", 1),
        (1, Close("x"), 2),
    ]
    return VSetAutomaton(AB, ["x"], NFA(alphabet, [0, 1, 2], 0, [2],
                                        transitions))


class TestConstruction:
    def test_alphabet_must_include_gamma(self):
        nfa = NFA(AB, [0], 0, [0], [])
        with pytest.raises(ValueError):
            VSetAutomaton(AB, ["x"], nfa)

    def test_from_language_nfa(self):
        from repro.automata.regex import regex_to_nfa

        spanner = VSetAutomaton.from_language_nfa(AB, regex_to_nfa("ab", AB))
        assert spanner.arity == 0
        assert spanner.evaluate("ab") == {SpanTuple({})}

    def test_universal_spanner(self):
        universal = VSetAutomaton.universal_spanner(AB, ["x"])
        result = universal.evaluate("ab")
        # Every span of 'ab': 6 of them.
        assert len(result) == 6


class TestEvaluation:
    def test_hand_built(self):
        spanner = hand_built_vsa()
        assert spanner.evaluate("aa") == {SpanTuple({"x": Span(1, 3)})}
        assert spanner.evaluate("") == {SpanTuple({"x": Span(1, 1)})}
        assert spanner.evaluate("b") == set()

    def test_epsilon_loops_terminate(self):
        alphabet = AB | gamma(["x"])
        transitions = [
            (0, EPSILON, 1), (1, EPSILON, 0),
            (0, Open("x"), 2), (2, Close("x"), 3),
        ]
        spanner = VSetAutomaton(AB, ["x"],
                                NFA(alphabet, [0, 1, 2, 3], 0, [3],
                                    transitions))
        assert spanner.evaluate("") == {SpanTuple({"x": Span(1, 1)})}

    def test_suffix_collapse_correctness(self):
        # After all variables close, long suffixes are table lookups;
        # semantics must be unchanged.
        spanner = compile_regex_formula("x{a}(a|b)*", AB)
        assert spanner.evaluate("abbbb") == {SpanTuple({"x": Span(1, 2)})}
        assert spanner.evaluate("babb") == set()


class TestFunctionality:
    def test_functional_detection(self):
        assert hand_built_vsa().is_functional()
        bad = compile_regex_formula("(x{a})*", AB, require_functional=False)
        assert not bad.is_functional()

    def test_to_functional_preserves_semantics(self):
        bad = compile_regex_formula("(x{a})*|x{b}", AB,
                                    require_functional=False)
        fixed = bad.to_functional()
        assert fixed.is_functional()
        for document in documents_upto(AB, 3):
            assert fixed.evaluate(document) == bad.evaluate(document)

    def test_valid_ref_nfa_filters(self):
        bad = compile_regex_formula("(x{a})*", AB, require_functional=False)
        valid = bad.valid_ref_nfa()
        # One iteration is the only valid ref-word.
        assert valid.accepts((Open("x"), "a", Close("x")))
        assert not valid.accepts(())
        assert not valid.accepts(
            (Open("x"), "a", Close("x"), Open("x"), "a", Close("x"))
        )


class TestMatchLanguage:
    def test_match_language(self):
        spanner = compile_regex_formula(".*x{aa}.*", AB)
        language = spanner.match_language()
        assert language.accepts("baab")
        assert not language.accepts("ab")

    def test_match_language_respects_validity(self):
        bad = compile_regex_formula("(x{a})*", AB, require_functional=False)
        language = bad.match_language()
        assert language.accepts("a")
        assert not language.accepts("")
        assert not language.accepts("aa")


class TestExtendedForm:
    def test_roundtrip_preserves_semantics(self):
        spanner = compile_regex_formula(".*x{a|ab}y{b*}.*", AB)
        rebuilt = from_extended_nfa(spanner.extended_nfa(), AB,
                                    spanner.variables)
        for document in documents_upto(AB, 4):
            assert rebuilt.evaluate(document) == spanner.evaluate(document)

    @given(formula_nodes_st())
    def test_roundtrip_random_formulas(self, node):
        spanner = compile_regex_formula(node, AB, require_functional=False)
        rebuilt = from_extended_nfa(spanner.extended_nfa(), AB,
                                    spanner.variables)
        for document in documents_upto(AB, 3):
            assert rebuilt.evaluate(document) == spanner.evaluate(document)

    def test_rebuilt_is_functional(self):
        bad = compile_regex_formula("(x{a})*", AB, require_functional=False)
        rebuilt = from_extended_nfa(bad.extended_nfa(), AB, bad.variables)
        assert rebuilt.is_functional()

    def test_built_once_per_mutation_epoch(self):
        # An equivalence test asks for each side's form twice.
        spanner = hand_built_vsa()
        extended = spanner.extended_nfa()
        assert spanner.extended_nfa() is extended
        labels = {symbol for _s, symbol, _t in extended.transitions()}
        assert not any(letter == "b" for _ops, letter in labels)
        spanner.nfa.add_transition(1, "b", 1)
        widened = spanner.extended_nfa()
        assert widened is not extended
        assert any(letter == "b" for _ops, letter
                   in {symbol for _s, symbol, _t in widened.transitions()})
        assert spanner.extended_nfa() is widened


class TestRenaming:
    def test_rename(self):
        spanner = compile_regex_formula("x{a}", AB)
        renamed = spanner.rename_variables({"x": "z"})
        assert renamed.variables == {"z"}
        assert renamed.evaluate("a") == {SpanTuple({"z": Span(1, 2)})}

    def test_rename_must_be_injective(self):
        spanner = compile_regex_formula("x{a}y{b}", AB)
        with pytest.raises(ValueError):
            spanner.rename_variables({"x": "y"})
