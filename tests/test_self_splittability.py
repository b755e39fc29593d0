"""Tests for self-splittability (Section 5.3, Theorems 5.16/5.17)."""

import pytest
from hypothesis import given

from repro.core.self_splittability import (
    is_self_splittable,
    is_self_splittable_dfvsa,
    self_splittability_witness,
)
from repro.reductions import self_splittability_instance
from repro.spanners.determinism import determinize
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import (
    char_ngram_splitter,
    sentence_splitter,
    token_splitter,
)

AB = frozenset("ab")
TXT = frozenset("ab .")


class TestExamples:
    def test_example_5_13(self):
        alphabet = frozenset("abc")
        p = compile_regex_formula("(ab)y{b}|(c)y{b}b", alphabet)
        s = compile_regex_formula("x{.*}|.*x{bb}.*", alphabet)
        assert is_self_splittable(p, s)

    def test_ngram_window_size_threshold(self):
        # Miniature of Section 3.1's email/phone example: P wants an
        # 'a' and a 'b' with at most one symbol in between; it is
        # self-splittable by N-grams (with the short-document window
        # convention) for N >= 3 but not for N = 2.
        p = compile_regex_formula(
            ".*e{a}(.?)p{b}.*|e{a}(.?)p{b}.*|.*e{a}(.?)p{b}|e{a}(.?)p{b}",
            AB,
        )
        three_gram = char_ngram_splitter(AB, 3, include_short_documents=True)
        two_gram = char_ngram_splitter(AB, 2, include_short_documents=True)
        assert is_self_splittable(p, three_gram)
        assert not is_self_splittable(p, two_gram)

    def test_person_name_extractor_vs_splitters(self):
        # An extractor bounded by ' '/'.'/edges.  Space-separated
        # tokens preserve every boundary, so it self-splits by tokens;
        # sentences do not exist in period-free documents, so the cover
        # condition fails for the sentence splitter.
        p = compile_regex_formula(
            ".*(\\.| )y{aa}(\\.| ).*|y{aa}(\\.| ).*|.*(\\.| )y{aa}|y{aa}",
            TXT,
        )
        tokens = token_splitter(TXT, separators={" "})
        assert is_self_splittable(p, tokens)
        sentences = sentence_splitter(TXT)
        assert not is_self_splittable(p, sentences)

    def test_whole_document_always_self_splits(self):
        from repro.splitters.builders import whole_document_splitter

        p = compile_regex_formula(".*y{ab}.*", AB)
        whole = whole_document_splitter(AB)
        assert is_self_splittable(p, whole)

    def test_witness(self):
        alphabet = frozenset("ab ")
        crossing = compile_regex_formula(
            ".*y{a a}.*|y{a a}.*|.*y{a a}|y{a a}", alphabet
        )
        tokens = token_splitter(alphabet)
        witness = self_splittability_witness(crossing, tokens)
        assert witness is not None
        document, t = witness
        assert t in crossing.evaluate("".join(document))


class TestTractable:
    def test_theorem_5_17(self):
        alphabet = frozenset("ab ")
        p = determinize(compile_regex_formula(
            ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}", alphabet))
        tokens = determinize(token_splitter(alphabet))
        assert is_self_splittable_dfvsa(p, tokens)
        assert is_self_splittable(p, tokens)


class TestTheorem516Family:
    """Corrected reduction (see
    :func:`repro.reductions.self_splittability_instance`): the
    criterion for the construction is *equivalence* of r1 and r2;
    containment is reduced to equivalence via union."""

    @pytest.mark.parametrize(
        "r1,r2,expected",
        [
            ("(b|c)*", "(b|c)*", True),
            ("b*", "b*", True),
            ("b*", "(b|c)*", False),       # strict containment: not enough
            ("(b|c)*", "b*", False),
            ("b*|(b|c)*", "(b|c)*", True),   # encodes b* <= (b|c)*
            ("(b|c)*|b*", "b*", False),      # encodes (b|c)* <= b*: no
        ],
    )
    def test_reduction(self, r1, r2, expected):
        p, s = self_splittability_instance(r1, r2, "bc")
        assert is_self_splittable(p, s) == expected

    def test_paper_counterexample_documented(self):
        # The concrete failure of the paper's claimed criterion: with
        # r1 = b* strictly contained in r2 = (b|c)*, the witness 'ac'
        # separates P from P o S.
        p, s = self_splittability_instance("b*", "(b|c)*", "bc")
        witness = self_splittability_witness(p, s)
        assert witness is not None
