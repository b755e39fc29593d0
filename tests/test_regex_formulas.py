"""Tests for regex formulas: parsing, compilation, evaluation.

The central property test cross-checks the compiled VSet-automaton
against the independent compositional reference evaluator
(:func:`tests.reference.ref_eval`) on exhaustive small documents.
"""

import pytest
from hypothesis import given

from repro.core.spans import Span, SpanTuple
from repro.spanners.regex_formulas import (
    Capture,
    compile_regex_formula,
    formula_size,
    parse_regex_formula,
    svars,
)
from repro.automata.regex import Concat, Literal, RegexParseError
from tests.conftest import formula_nodes_st
from tests.reference import documents_upto, ref_eval

AB = frozenset("ab")


class TestParser:
    def test_capture_basic(self):
        node = parse_regex_formula("x{a}b")
        assert svars(node) == {"x"}

    def test_nested_captures(self):
        node = parse_regex_formula("x{y{a}b}")
        assert svars(node) == {"x", "y"}

    def test_identifier_is_maximal(self):
        # 'ax{b}' is a capture named 'ax' (documented rule).
        node = parse_regex_formula("ax{b}")
        assert svars(node) == {"ax"}
        # Escaping or grouping yields the literal-then-capture reading.
        node = parse_regex_formula("(a)x{b}")
        assert svars(node) == {"x"}

    def test_literal_letter_not_capture(self):
        node = parse_regex_formula("ab")
        assert svars(node) == frozenset()

    def test_a_letter_before_a_capture_prints_apart(self):
        node = Concat(Literal("a"), Capture("x", Literal("b")))
        assert node.to_string() == "a(x{b})"
        assert parse_regex_formula(node.to_string()) == node

    @given(formula_nodes_st())
    def test_printed_formula_reparses(self, node):
        again = parse_regex_formula(node.to_string())
        for document in documents_upto(AB, 3):
            assert ref_eval(again, document, AB) == ref_eval(
                node, document, AB), (node.to_string(), document)

    def test_unterminated_capture(self):
        with pytest.raises(RegexParseError):
            parse_regex_formula("x{a")

    def test_formula_size(self):
        assert formula_size(parse_regex_formula("x{a}b")) >= 3


class TestCompilation:
    def test_whole_match_semantics(self):
        spanner = compile_regex_formula("x{a*}", AB)
        assert spanner.evaluate("aa") == {SpanTuple({"x": Span(1, 3)})}
        assert spanner.evaluate("ab") == set()

    def test_context_matches(self):
        spanner = compile_regex_formula(".*x{a}.*", AB)
        assert spanner.evaluate("aba") == {
            SpanTuple({"x": Span(1, 2)}),
            SpanTuple({"x": Span(3, 4)}),
        }

    def test_empty_captures(self):
        spanner = compile_regex_formula("x{~}a", AB)
        assert spanner.evaluate("a") == {SpanTuple({"x": Span(1, 1)})}

    def test_boolean_spanner(self):
        spanner = compile_regex_formula("a*b", AB)
        assert spanner.evaluate("ab") == {SpanTuple({})}
        assert spanner.evaluate("ba") == set()

    def test_nonfunctional_rejected(self):
        with pytest.raises(ValueError):
            compile_regex_formula("(x{a})*", AB)
        with pytest.raises(ValueError):
            compile_regex_formula("x{a}|b", AB)  # x missing in a branch

    def test_nonfunctional_semantics_if_allowed(self):
        # Only valid ref-words produce tuples (footnote 5's example).
        spanner = compile_regex_formula("(x{a})*", AB,
                                        require_functional=False)
        assert not spanner.is_functional()
        assert spanner.evaluate("a") == {SpanTuple({"x": Span(1, 2)})}
        assert spanner.evaluate("") == set()
        assert spanner.evaluate("aa") == set()

    def test_literal_outside_alphabet(self):
        with pytest.raises(ValueError):
            compile_regex_formula("x{c}", AB)

    @given(formula_nodes_st())
    def test_matches_reference_evaluator(self, node):
        spanner = compile_regex_formula(node, AB, require_functional=False)
        for document in documents_upto(AB, 3):
            assert spanner.evaluate(document) == ref_eval(node, document, AB), (
                node.to_string(), document
            )


class TestEvaluationEdgeCases:
    def test_empty_document(self):
        spanner = compile_regex_formula("x{~}", AB)
        assert spanner.evaluate("") == {SpanTuple({"x": Span(1, 1)})}

    def test_two_variables_nested_vs_sequential(self):
        nested = compile_regex_formula("x{y{a}}", AB)
        assert nested.evaluate("a") == {
            SpanTuple({"x": Span(1, 2), "y": Span(1, 2)})
        }
        sequential = compile_regex_formula("x{a}y{b}", AB)
        assert sequential.evaluate("ab") == {
            SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        }

    def test_alternation_same_variable(self):
        spanner = compile_regex_formula("x{a}b|(a)x{b}", AB)
        assert spanner.evaluate("ab") == {
            SpanTuple({"x": Span(1, 2)}),
            SpanTuple({"x": Span(2, 3)}),
        }

    def test_rejects_bad_document_symbol(self):
        spanner = compile_regex_formula("x{a}", AB)
        with pytest.raises(ValueError):
            spanner.evaluate("c")
