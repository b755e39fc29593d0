"""Tests for split-correctness (Theorems 5.1 and 5.7)."""

import pytest
from hypothesis import given

from repro.automata.dfa import random_dfa
from repro.core.split_correctness import (
    split_correct_dfvsa,
    split_correct_general,
    split_correct_witness,
)
from repro.reductions import (
    split_correctness_instance,
    union_universality_instance,
)
from repro.runtime.planner import Planner, RegisteredSplitter
from repro.spanners.determinism import determinize
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import (
    record_splitter,
    sentence_splitter,
    token_splitter,
)
from repro.splitters.disjointness import is_disjoint
from tests.conftest import formula_nodes_st, splitter_nodes_st
from tests.reference import semantically_split_correct

AB = frozenset("ab")
TXT = frozenset("ab ")


def token_bounded_extractor(alphabet=TXT):
    """Extracts maximal a-runs delimited by space or document edge."""
    return compile_regex_formula(
        ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", alphabet
    )


class TestPaperExamples:
    def test_example_5_8(self):
        p = compile_regex_formula("(a)y{b}b", AB)
        s = compile_regex_formula("x{ab}b|(a)x{bb}", AB)
        ps1 = compile_regex_formula("(a)y{b}", AB)
        ps2 = compile_regex_formula("y{b}b", AB)
        assert split_correct_general(p, ps1, s)
        assert split_correct_general(p, ps2, s)

    def test_http_request_line(self):
        # Section 3.1: P finds the line after a blank separator; P_S
        # finds the first line of each record.
        alphabet = frozenset("Gl#")
        p = compile_regex_formula("(.*\\#)?y{G}(l*)((\\#).*)?", alphabet)
        p_s = compile_regex_formula("y{G}l*", alphabet)
        records = record_splitter(alphabet, "#")
        assert split_correct_general(p, p_s, records)

    def test_self_case_via_general(self):
        p = token_bounded_extractor()
        tokens = token_splitter(TXT)
        assert split_correct_general(p, p, tokens)

    def test_wrong_split_spanner(self):
        p = token_bounded_extractor()
        wrong = compile_regex_formula(".*y{a+}.*", TXT)
        tokens = token_splitter(TXT)
        # `wrong` also matches a-runs adjacent to 'b's inside a token.
        assert not split_correct_general(p, wrong, tokens)

    def test_witness_production(self):
        p = token_bounded_extractor()
        wrong = compile_regex_formula(".*y{a+}.*", TXT)
        tokens = token_splitter(TXT)
        witness = split_correct_witness(p, wrong, tokens)
        assert witness is not None
        document, t = witness
        doc = "".join(document)
        from repro.core.composition import compose_semantics

        direct = p.evaluate(doc)
        composed = compose_semantics(wrong.evaluate, tokens, doc)
        assert (t in direct) != (t in composed)

    def test_variable_mismatch_rejected(self):
        p = compile_regex_formula("y{a}", AB)
        ps = compile_regex_formula("z{a}", AB)
        s = compile_regex_formula("x{(a|b)*}", AB)
        with pytest.raises(ValueError):
            split_correct_general(p, ps, s)


class TestTheorem51Family:
    @pytest.mark.parametrize("seed", range(6))
    def test_reduction_correct(self, seed):
        sigma = ["b", "c"]
        dfas = [random_dfa(sigma, 2, seed * 13 + k) for k in range(2)]
        truth = union_universality_instance(dfas, sigma)
        p, p_s, s = split_correctness_instance(dfas, sigma)
        assert split_correct_general(p, p_s, s) == truth

    def test_universal_instance(self):
        from repro.automata.regex import regex_to_nfa

        cover1 = regex_to_nfa("b*", frozenset("bc")).to_dfa()
        cover2 = regex_to_nfa("(b|c)*c(b|c)*", frozenset("bc")).to_dfa()
        p, p_s, s = split_correctness_instance([cover1, cover2], ["b", "c"])
        assert split_correct_general(p, p_s, s)


class TestTractableFragment:
    def test_theorem_5_7_positive(self):
        p = determinize(token_bounded_extractor())
        tokens = determinize(token_splitter(TXT))
        assert split_correct_dfvsa(p, p, tokens)
        assert split_correct_general(p, p, tokens)

    def test_theorem_5_7_negative(self):
        crossing = determinize(compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", TXT))
        tokens = determinize(token_splitter(TXT))
        assert not split_correct_dfvsa(crossing, crossing, tokens)
        assert not split_correct_general(crossing, crossing, tokens)

    def test_different_split_spanner(self):
        alphabet = frozenset("Gl#")
        p = determinize(compile_regex_formula(
            "(.*\\#)?y{G}(l*)((\\#).*)?", alphabet))
        p_s = determinize(compile_regex_formula("y{G}l*", alphabet))
        records = determinize(record_splitter(alphabet, "#"))
        assert split_correct_dfvsa(p, p_s, records)

    @pytest.mark.parametrize("pattern, splitter_pattern, expected", [
        # On "a" the splits are [1,2> and the empty [2,2>: the 0-ary
        # tuple is produced by the first, so the second missing it is
        # not a discrepancy.
        ("a", "x{a}|a(x{})", True),
        # Every split of "a" covers the empty span [2,2>.
        ("a(y{})", "x{a}|a(x{})", True),
        # A 0-ary spanner over a-run tokens: some token holds the a.
        (".*a.*", "(.*b)?x{a*}(b.*)?", True),
        (".*b.*", "(.*b)?x{a*}(b.*)?", False),
        ("y{}a", "x{}a|a(x{})", False),
        ("ab", "x{a}b|a(x{b})", False),
    ])
    def test_tuples_covered_by_two_splits(self, pattern, splitter_pattern,
                                          expected):
        p = compile_regex_formula(pattern, AB, require_functional=False)
        splitter = compile_regex_formula(splitter_pattern, AB,
                                         require_functional=False)
        assert is_disjoint(splitter)
        assert split_correct_general(p, p, splitter) == expected
        assert semantically_split_correct(p, p, splitter, 4) == expected
        p_det, s_det = determinize(p), determinize(splitter)
        assert split_correct_dfvsa(p_det, p_det, s_det) == expected

    def test_precondition_check(self):
        p = token_bounded_extractor()
        tokens = determinize(token_splitter(TXT))
        with pytest.raises(ValueError):
            split_correct_dfvsa(p, p, tokens)

    @given(formula_nodes_st(max_depth=2), splitter_nodes_st())
    def test_fast_agrees_with_general(self, p_node, s_node):
        p = compile_regex_formula(p_node, AB, require_functional=False)
        splitter = compile_regex_formula(s_node, AB,
                                         require_functional=False)
        if splitter.variables != {"x"} or p.variables == {"x"}:
            return
        if not is_disjoint(splitter):
            return
        p_det = determinize(p)
        s_det = determinize(splitter)
        fast = split_correct_dfvsa(p_det, p_det, s_det)
        slow = split_correct_general(p, p, splitter)
        assert fast == slow, (p_node.to_string(), s_node.to_string())
        planned = Planner([RegisteredSplitter("s", s_det)]).plan(p_det)
        assert planned.self_splittable == slow, (p_node.to_string(),
                                                 s_node.to_string())

    @given(formula_nodes_st(max_depth=2), splitter_nodes_st())
    def test_general_matches_bounded_semantics(self, p_node, s_node):
        p = compile_regex_formula(p_node, AB, require_functional=False)
        splitter = compile_regex_formula(s_node, AB,
                                         require_functional=False)
        if splitter.variables != {"x"}:
            return
        decided = split_correct_general(p, p, splitter)
        if decided:
            assert semantically_split_correct(p, p, splitter, 3)
        else:
            witness = split_correct_witness(p, p, splitter)
            assert witness is not None


@pytest.mark.parametrize("splitter", [".*x{a}.*", ".*x{.}.*"])
def test_default_method_agrees_on_an_empty_capture(splitter):
    # ``method="auto"`` once answered False here: P extracts the empty
    # span before every ``a``, and each splitter's chunks hold all of
    # them; after an ``a`` that span is covered by two adjacent chunks.
    from repro.core.api import self_splittable

    p = determinize(compile_regex_formula(".*y{~}a.*", AB))
    s = determinize(compile_regex_formula(splitter, AB))
    assert semantically_split_correct(p, p, s, 5)
    assert self_splittable(p, s, method="general")
    assert self_splittable(p, s)
