"""Tests for splittability and the canonical split-spanner (Sec 5.2)."""

import pytest
from hypothesis import given

from repro.core.composition import compose, compose_semantics, splits_of
from repro.core.spans import Span, SpanTuple
from repro.core.split_correctness import split_correct_general
from repro.core.splittability import (
    canonical_split_spanner,
    is_splittable,
    splittability_witness,
)
from repro.reductions import splittability_instance
from repro.spanners.containment import spanner_contains
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter
from repro.splitters.disjointness import is_disjoint
from tests.conftest import formula_nodes_st, splitter_nodes_st
from tests.reference import documents_upto

AB = frozenset("ab")
ABC = frozenset("abc")


def brute_canonical(spanner, splitter, chunk, context_length):
    """``P_S^can(chunk)`` by enumerating bounded context documents."""
    results = set()
    alphabet = spanner.doc_alphabet
    for context in documents_upto(alphabet, context_length):
        for span in splits_of(splitter, context):
            if span.extract(context) != chunk:
                continue
            for t in spanner.evaluate(context):
                if t.covered_by(span):
                    results.add(t.unshift(span))
    return results


class TestCanonicalSplitSpanner:
    def test_example_5_10_values(self):
        p = compile_regex_formula("(a)y{b}b", AB)
        s = compile_regex_formula("x{ab}b|(a)x{bb}", AB)
        canonical = canonical_split_spanner(p, s)
        assert canonical.evaluate("ab") == {SpanTuple({"y": Span(2, 3)})}
        assert canonical.evaluate("bb") == {SpanTuple({"y": Span(1, 2)})}

    def test_example_5_10_composition_follows_definition(self):
        # Reproduction note: by Definition 3.1's composition,
        # (P_S^can o S)(abb) = {[2,3>} = P(abb); the example's displayed
        # expansion pools tuples across chunks and is inconsistent with
        # the definition.
        p = compile_regex_formula("(a)y{b}b", AB)
        s = compile_regex_formula("x{ab}b|(a)x{bb}", AB)
        canonical = canonical_split_spanner(p, s)
        composed = compose(canonical, s)
        assert composed.evaluate("abb") == {SpanTuple({"y": Span(2, 3)})}

    def test_example_5_13_overproduction(self):
        # The intended phenomenon: for non-disjoint splitters the
        # canonical split-spanner can overproduce.
        p = compile_regex_formula("(ab)y{b}|(c)y{b}b", ABC)
        s = compile_regex_formula("x{.*}|.*x{bb}.*", ABC)
        canonical = canonical_split_spanner(p, s)
        assert canonical.evaluate("bb") == {
            SpanTuple({"y": Span(1, 2)}),
            SpanTuple({"y": Span(2, 3)}),
        }
        composed = compose(canonical, s)
        assert not spanner_contains(composed, p)

    def test_matches_brute_force_on_chunks(self):
        alphabet = frozenset("ab ")
        p = compile_regex_formula(
            ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", alphabet
        )
        tokens = token_splitter(alphabet)
        canonical = canonical_split_spanner(p, tokens)
        for chunk in ["a", "aa", "ab", "b", "aba"]:
            assert canonical.evaluate(chunk) == brute_canonical(
                p, tokens, chunk, 4
            ), chunk

    @given(formula_nodes_st(max_depth=2), splitter_nodes_st())
    def test_canonical_brute_force_random(self, p_node, s_node):
        p = compile_regex_formula(p_node, AB, require_functional=False)
        splitter = compile_regex_formula(s_node, AB,
                                         require_functional=False)
        if splitter.variables != {"x"} or "x" in p.variables:
            return
        canonical = canonical_split_spanner(p, splitter)
        for chunk in ["", "a", "b", "ab", "ba"]:
            assert canonical.evaluate(chunk) == brute_canonical(
                p, splitter, chunk, 4
            ), (p_node.to_string(), s_node.to_string(), chunk)


class TestSplittability:
    def test_splittable_via_different_split_spanner(self):
        # Example 5.8's P is splittable by its (non-disjoint) S; for the
        # disjoint path use the HTTP-style record instance.
        alphabet = frozenset("Gl#")
        p = compile_regex_formula("(.*\\#)?y{G}(l*)((\\#).*)?", alphabet)
        from repro.splitters.builders import record_splitter

        records = record_splitter(alphabet, "#")
        assert is_splittable(p, records)
        witness = splittability_witness(p, records)
        assert witness is not None
        assert split_correct_general(p, witness, records)

    def test_not_splittable(self):
        alphabet = frozenset("ab ")
        crossing = compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", alphabet
        )
        tokens = token_splitter(alphabet)
        assert not is_splittable(crossing, tokens)
        assert splittability_witness(crossing, tokens) is None

    def test_non_disjoint_rejected(self):
        p = compile_regex_formula(".*y{a}.*", AB)
        two_gram = compile_regex_formula(".*x{..}.*|x{..}", AB)
        assert not is_disjoint(two_gram)
        with pytest.raises(ValueError):
            is_splittable(p, two_gram)

    def test_lemma_5_14_canonical_is_minimal(self):
        # If P = P_S o S with S disjoint then P_S^can <= P_S.
        alphabet = frozenset("Gl#")
        p = compile_regex_formula("(.*\\#)?y{G}(l*)((\\#).*)?", alphabet)
        p_s = compile_regex_formula("y{G}l*", alphabet)
        from repro.splitters.builders import record_splitter

        records = record_splitter(alphabet, "#")
        assert split_correct_general(p, p_s, records)
        canonical = canonical_split_spanner(p, records)
        assert spanner_contains(canonical, p_s)


class TestTheorem515Family:
    @pytest.mark.parametrize(
        "r1,r2,expected",
        [
            ("(a|b)*", "(a|b)*", True),
            ("a*", "(a|b)*", True),
            ("(a|b)*", "a*", False),
            ("ab", "a(a|b)", True),
            ("a(a|b)", "ab", False),
            ("!", "a", True),  # empty language contained in anything
        ],
    )
    def test_reduction(self, r1, r2, expected):
        p, s = splittability_instance(r1, r2, "ab")
        assert is_splittable(p, s) == expected
