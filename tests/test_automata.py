"""Tests for the classical automata substrate."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.automata import (
    DFA,
    EPSILON,
    NFA,
    count_words_by_length,
    is_unambiguous,
    nfa_contains,
    nfa_equivalent,
    nfa_universal,
    parse_regex,
    regex_to_nfa,
    ufa_contains,
)
from repro.automata.containment import (
    containment_counterexample,
    union_universal,
)
from repro.automata.dfa import random_dfa
from repro.automata.nfa import empty_language_nfa, literal_nfa, universal_nfa
from repro.automata.regex import Concat, Literal, RegexParseError
from repro.automata.ufa import AmbiguityError
from repro.spanners.regex_formulas import Capture, compile_regex_formula
from tests.conftest import documents_st, language_nodes_st
from tests.reference import documents_upto, ref_eval

AB = frozenset("ab")


def brute_language(nfa, alphabet, max_length):
    return {d for d in documents_upto(alphabet, max_length)
            if nfa.accepts(d)}


class TestNFA:
    def test_accepts(self):
        nfa = regex_to_nfa("a*b", AB)
        assert nfa.accepts("b")
        assert nfa.accepts("aaab")
        assert not nfa.accepts("")
        assert not nfa.accepts("ba")

    def test_epsilon_closure_cycles(self):
        nfa = NFA(AB, [0, 1, 2], 0, [2],
                  [(0, EPSILON, 1), (1, EPSILON, 0), (1, EPSILON, 2)])
        assert nfa.epsilon_closure({0}) == {0, 1, 2}
        assert nfa.accepts("")

    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            NFA(AB, [0], 0, [0], [(0, "c", 0)])

    def test_trim_empty_language(self):
        nfa = NFA(AB, [0, 1], 0, [], [(0, "a", 1)])
        trimmed = nfa.trim()
        assert trimmed.is_empty()
        assert len(trimmed.states) == 1

    def test_shortest_word(self):
        nfa = regex_to_nfa("aab|b", AB)
        assert nfa.shortest_word() == ("b",)
        assert empty_language_nfa(AB).shortest_word() is None
        assert universal_nfa(AB).shortest_word() == ()

    def test_product_intersection(self):
        evens = regex_to_nfa("((a|b)(a|b))*", AB)
        with_a = regex_to_nfa("(a|b)*a(a|b)*", AB)
        product = evens.product(with_a)
        assert brute_language(product, AB, 4) == (
            brute_language(evens, AB, 4) & brute_language(with_a, AB, 4)
        )

    def test_union_concat_star(self):
        left = regex_to_nfa("a", AB)
        right = regex_to_nfa("b", AB)
        assert brute_language(left.union(right), AB, 2) == {"a", "b"}
        assert brute_language(left.concatenate(right), AB, 3) == {"ab"}
        assert "aaa" in brute_language(left.star(), AB, 3)
        assert "" in brute_language(left.star(), AB, 3)

    def test_remove_epsilon_preserves_language(self):
        nfa = regex_to_nfa("(a|~)(b|~)a*", AB)
        clean = nfa.remove_epsilon()
        for state in clean.states:
            assert EPSILON not in clean.symbols_from(state)
        assert brute_language(nfa, AB, 4) == brute_language(clean, AB, 4)

    def test_relabel_preserves_language(self):
        nfa = regex_to_nfa("a(a|b)*b", AB)
        assert brute_language(nfa, AB, 4) == brute_language(nfa.relabel(),
                                                            AB, 4)

    @given(language_nodes_st())
    def test_to_dfa_preserves_language(self, node):
        nfa = regex_to_nfa(node, AB)
        dfa = nfa.to_dfa()
        for word in ["", "a", "b", "ab", "ba", "aab", "bba"]:
            assert nfa.accepts(word) == dfa.accepts(word)


class TestDFA:
    def test_complement(self):
        dfa = regex_to_nfa("a*", AB).to_dfa()
        comp = dfa.complement()
        for word in ["", "a", "aa", "b", "ab"]:
            assert dfa.accepts(word) != comp.accepts(word)

    def test_minimize_reduces_states(self):
        # (a|b)*b has a 2-state minimal DFA.
        dfa = regex_to_nfa("(a|b)*b", AB).to_dfa()
        minimal = dfa.minimize()
        assert len(minimal.states) <= len(dfa.states)
        assert len(minimal.states) == 2

    @given(language_nodes_st())
    def test_minimize_preserves_language(self, node):
        dfa = regex_to_nfa(node, AB).to_dfa()
        minimal = dfa.minimize()
        for word in ["", "a", "b", "ab", "ba", "abab", "bb"]:
            assert dfa.accepts(word) == minimal.accepts(word)

    def test_random_dfa_deterministic_in_seed(self):
        d1 = random_dfa("ab", 4, seed=7)
        d2 = random_dfa("ab", 4, seed=7)
        for word in ["", "a", "ab", "bbb"]:
            assert d1.accepts(word) == d2.accepts(word)


class TestRegexParser:
    def test_postfix_operators(self):
        nfa = regex_to_nfa("a+b?", AB)
        assert nfa.accepts("a")
        assert nfa.accepts("aab")
        assert not nfa.accepts("b")

    def test_escapes_and_specials(self):
        assert regex_to_nfa("~", AB).accepts("")
        assert regex_to_nfa("!", AB).is_empty()
        star = frozenset("a*")
        assert regex_to_nfa("\\*", star).accepts("*")

    def test_any_symbol(self):
        nfa = regex_to_nfa(".", AB)
        assert nfa.accepts("a") and nfa.accepts("b")
        assert not nfa.accepts("")

    def test_parse_errors(self):
        for bad, message in [
            ("(a", "unbalanced parenthesis"),
            ("a)", "unexpected ')' at position 1"),
            ("*a", "unexpected metacharacter '*'"),
            ("a|*", "unexpected metacharacter '*'"),
            ("\\", "dangling escape"),
        ]:
            with pytest.raises(RegexParseError) as info:
                parse_regex(bad)
            assert str(info.value) == message

    def test_braces_are_metacharacters(self):
        with pytest.raises(RegexParseError):
            parse_regex("a{")
        with pytest.raises(RegexParseError):
            parse_regex("a}")
        assert regex_to_nfa("\\{a\\}", frozenset("a{}")).accepts("{a}")

    def test_a_capture_is_refused(self):
        with pytest.raises(ValueError, match="no captures"):
            regex_to_nfa("x{a}", AB)
        with pytest.raises(ValueError, match="no captures"):
            regex_to_nfa(parse_regex("a(x{b})"), AB)

    def test_braces_print_escaped(self):
        node = Capture("x", Concat(Literal("a"), Literal("{")))
        assert node.to_string() == "x{a\\{}"
        assert parse_regex(node.to_string()) == node

    @given(language_nodes_st())
    def test_one_construction_for_regexes_and_formulas(self, node):
        formula = compile_regex_formula(node, AB,
                                        require_functional=False).nfa
        shape = (formula.initial, formula.finals,
                 set(formula.transitions()))
        for nfa in (regex_to_nfa(node.to_string(), AB),
                    regex_to_nfa(node, AB)):
            assert (nfa.initial, nfa.finals,
                    set(nfa.transitions())) == shape
            for document in documents_upto(AB, 4):
                assert nfa.accepts(document) == bool(
                    ref_eval(node, document, AB)), (node, document)

    def test_to_string_roundtrip(self):
        node = parse_regex("(a|b)*ab?")
        again = parse_regex(node.to_string())
        n1 = regex_to_nfa(node, AB)
        n2 = regex_to_nfa(again, AB)
        assert nfa_equivalent(n1, n2)


class TestContainment:
    def test_basic(self):
        small = regex_to_nfa("a*b", AB)
        large = regex_to_nfa("(a|b)*b", AB)
        assert nfa_contains(small, large)
        assert not nfa_contains(large, small)

    def test_counterexample_is_shortest(self):
        small = regex_to_nfa("a*b", AB)
        large = regex_to_nfa("(a|b)*b", AB)
        witness = containment_counterexample(large, small)
        assert witness is not None
        assert large.accepts(witness) and not small.accepts(witness)
        assert len(witness) == 2  # "bb" or "ba"+... shortest is length 2

    def test_universality(self):
        assert nfa_universal(regex_to_nfa("(a|b)*", AB))
        assert not nfa_universal(regex_to_nfa("a*", AB))
        # Union universality: a(a|b)* + b(a|b)* + ~ covers everything.
        assert union_universal(
            [regex_to_nfa("a(a|b)*", AB), regex_to_nfa("b(a|b)*|~", AB)], AB
        )
        assert not union_universal(
            [regex_to_nfa("a*", AB), regex_to_nfa("b*a", AB)], AB
        )

    def test_universality_over_an_empty_alphabet(self):
        # Over no symbols, alphabet* is just the empty word.
        none = frozenset()
        assert nfa_universal(regex_to_nfa("~", AB), none)
        assert nfa_universal(regex_to_nfa("a*", AB), none)
        assert not nfa_universal(regex_to_nfa("a", AB), none)
        assert not nfa_universal(empty_language_nfa(none))

    @given(language_nodes_st())
    def test_universality_matches_brute_force(self, node):
        nfa = regex_to_nfa(node, AB)
        if nfa_universal(nfa, AB):
            assert brute_language(nfa, AB, 4) == brute_language(
                universal_nfa(AB), AB, 4)
        else:
            missing = containment_counterexample(universal_nfa(AB), nfa)
            assert not nfa.accepts(missing)

    @given(language_nodes_st(), language_nodes_st())
    def test_containment_matches_brute_force(self, left_node, right_node):
        left = regex_to_nfa(left_node, AB)
        right = regex_to_nfa(right_node, AB)
        decided = nfa_contains(left, right)
        brute = brute_language(left, AB, 4) <= brute_language(right, AB, 4)
        if decided:
            assert brute
        else:
            witness = containment_counterexample(left, right)
            assert left.accepts(witness) and not right.accepts(witness)


class TestUFA:
    def test_unambiguous_examples(self):
        assert is_unambiguous(regex_to_nfa("a*b", AB))
        assert is_unambiguous(regex_to_nfa("(a|b)*", AB).to_dfa().to_nfa())
        assert not is_unambiguous(regex_to_nfa("a|a", AB))
        # (a|b)*b is ambiguous as an NFA (two ways through the star).
        assert not is_unambiguous(regex_to_nfa("(ab|a)(b|~)", AB))

    def test_counting(self):
        counts = count_words_by_length(regex_to_nfa("(a|b)*", AB).to_dfa()
                                       .to_nfa(), 4)
        assert counts == [1, 2, 4, 8, 16]

    def test_ufa_containment_agrees_with_general(self):
        small = regex_to_nfa("a*b", AB)
        big = regex_to_nfa("(a|b)*b", AB).to_dfa().minimize().to_nfa()
        assert ufa_contains(small, big) == nfa_contains(small, big)
        assert ufa_contains(big, small) == nfa_contains(big, small)

    def test_ambiguity_error(self):
        ambiguous = regex_to_nfa("a|a", AB)
        fine = regex_to_nfa("(a|b)*", AB).to_dfa().to_nfa()
        with pytest.raises(AmbiguityError):
            ufa_contains(ambiguous, fine)

    @given(language_nodes_st(), language_nodes_st())
    def test_ufa_vs_general_on_determinized(self, n1, n2):
        left = regex_to_nfa(n1, AB).to_dfa().minimize().to_nfa()
        right = regex_to_nfa(n2, AB).to_dfa().minimize().to_nfa()
        assert ufa_contains(left, right) == nfa_contains(left, right)
