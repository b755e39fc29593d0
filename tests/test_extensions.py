"""Tests for Section 7: black boxes, regular filters, annotated splitters."""

import re

import pytest

from repro.automata.regex import regex_to_nfa
from repro.core.annotated import (
    AnnotatedSplitter,
    annotated_split_correct,
    annotated_split_correct_highlander,
    annotated_splittable,
    canonical_key_mapping,
    compose_annotated,
)
from repro.core.black_box import (
    BlackBoxSpanner,
    SpannerSignature,
    SpannerSymbol,
    SplitConstraint,
    black_box_split_correct,
    evaluate_join,
    evaluate_join_split,
    join_relations,
)
from repro.core.cover import cover_condition_general
from repro.core.filters import (
    FilteredSplitter,
    filtered_splitter_for,
    minimal_filter_language,
    self_splittable_with_filter,
    split_correct_with_filter,
    splittable_with_filter,
)
from repro.core.self_splittability import is_self_splittable
from repro.core.spans import Span, SpanTuple
from repro.spanners.algebra import natural_join
from repro.spanners.determinism import determinize
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter, whole_document_splitter

AB = frozenset("ab")
TXT = frozenset("ab .")


class TestJoinRelations:
    def test_join_agreeing(self):
        r1 = {SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})}
        r2 = {SpanTuple({"y": Span(2, 3), "z": Span(3, 4)})}
        joined = join_relations([r1, r2])
        assert joined == {SpanTuple({"x": Span(1, 2), "y": Span(2, 3),
                                     "z": Span(3, 4)})}

    def test_join_empty_input(self):
        assert join_relations([]) == {SpanTuple({})}

    def test_join_disagreeing(self):
        r1 = {SpanTuple({"x": Span(1, 2)})}
        r2 = {SpanTuple({"x": Span(2, 3)})}
        assert join_relations([r1, r2]) == set()


class TestBlackBoxes:
    def _setup(self):
        alphabet = frozenset("ab .")
        alpha = compile_regex_formula(
            ".*( )x{a+}( ).*|x{a+}( ).*|.*( )x{a+}|x{a+}", alphabet
        )

        def even_a_tokens(doc):
            return [
                {"x": Span(m.start() + 1, m.end() + 1)}
                for m in re.finditer(r"(?<![^ ])a+(?![^ ])", doc)
                if (m.end() - m.start()) % 2 == 0
            ]

        box = BlackBoxSpanner("even", ["x"], even_a_tokens)
        signature = SpannerSignature(
            (SpannerSymbol("even", frozenset(["x"])),)
        )
        tokens = token_splitter(alphabet)
        constraints = [SplitConstraint(signature.symbols[0], tokens)]
        return alpha, box, signature, tokens, constraints

    def test_theorem_7_4_positive(self):
        alpha, _box, signature, tokens, constraints = self._setup()
        assert black_box_split_correct(
            alpha, signature, constraints, tokens
        ) is True

    def test_split_execution_matches_direct(self):
        alpha, box, _sig, tokens, _cons = self._setup()
        doc = "aa b aaa aaaa. aa aa"
        direct = evaluate_join(alpha, [box], doc)
        split = evaluate_join_split(alpha, [box], tokens, doc)
        assert direct == split
        assert SpanTuple({"x": Span(1, 3)}) in direct

    def test_non_disjoint_gives_unknown(self):
        from repro.splitters.builders import token_ngram_splitter

        alpha, _box, signature, tokens, constraints = self._setup()
        two_grams = token_ngram_splitter(frozenset("ab ."), 2)
        assert black_box_split_correct(
            alpha, signature, constraints, two_grams
        ) is None

    def test_unconstrained_symbol_gives_unknown(self):
        alpha, _box, signature, tokens, _cons = self._setup()
        assert black_box_split_correct(alpha, signature, [], tokens) is None

    def test_disconnected_signature_gives_unknown(self):
        alpha, _box, _sig, tokens, _cons = self._setup()
        detached = SpannerSignature(
            (SpannerSymbol("other", frozenset(["z"])),)
        )
        constraints = [SplitConstraint(detached.symbols[0], tokens)]
        assert black_box_split_correct(
            alpha, detached, constraints, tokens
        ) is None

    def test_lemma_7_3(self):
        # Self-splittable conjuncts whose join is not splittable.
        p1 = compile_regex_formula(".*x1{a}x2{b}.*", AB)
        p2 = compile_regex_formula(".*x2{b}x3{a}.*", AB)
        s = compile_regex_formula(".*x{(a.)|(.a)}.*", AB)
        assert is_self_splittable(p1, s)
        assert is_self_splittable(p2, s)
        joined = natural_join(p1, p2)
        assert not cover_condition_general(joined, s)

    def test_black_box_output_validation(self):
        box = BlackBoxSpanner("bad", ["x"],
                              lambda doc: [{"y": Span(1, 1)}])
        with pytest.raises(ValueError):
            box.evaluate("a")


class TestFilters:
    def test_minimal_filter_language(self):
        p = compile_regex_formula("(h)y{a}.*", frozenset("hab"))
        language = minimal_filter_language(p)
        assert language.accepts("ha")
        assert language.accepts("hab")
        assert not language.accepts("ab")
        assert not language.accepts("h")

    def test_filtered_splitter_semantics(self):
        splitter = whole_document_splitter(AB)
        only_a = regex_to_nfa("a*", AB)
        filtered = FilteredSplitter(splitter, only_a)
        assert filtered.splits("aa") == {Span(1, 3)}
        assert filtered.splits("ab") == set()

    def test_as_splitter_equivalent(self):
        splitter = whole_document_splitter(AB)
        only_a = regex_to_nfa("a*", AB)
        filtered = FilteredSplitter(splitter, only_a)
        plain = filtered.as_splitter()
        for doc in ["", "a", "aa", "ab", "ba"]:
            from repro.core.composition import splits_of

            assert splits_of(plain, doc) == filtered.splits(doc)

    def test_theorem_7_6(self):
        # P requires a header symbol; unfiltered self-splittability by
        # the whole-document splitter holds trivially, so exercise a
        # case where the filter matters: P is empty off L_P and the
        # splitter only behaves on L_P.
        alphabet = frozenset("hab")
        p = compile_regex_formula("(h)y{a}(a|b)*", alphabet)
        splitter = compile_regex_formula("(h)x{a(a|b)*}", alphabet)
        # S o P disagrees off L_P?  Everything here is within L_P, so:
        assert split_correct_with_filter(
            p, compile_regex_formula("y{a}(a|b)*", alphabet), splitter
        )

    def test_sentence_filter_enables_splitting(self):
        # A format-checking extractor (matches only on well-formed,
        # period-terminated documents) is not self-splittable by plain
        # sentences — the splitter still fires on ill-formed documents
        # whose sentence chunks look well-formed — but it is with the
        # minimal filter L_P (Theorem 7.6).
        from repro.spanners.algebra import restrict_to_language
        from repro.splitters.builders import sentence_splitter

        p = compile_regex_formula(
            ".*(\\.| )y{aa}(\\.| ).*|y{aa}(\\.| ).*|.*(\\.| )y{aa}|y{aa}",
            TXT,
        )
        well_formed = regex_to_nfa("(a|b| )*\\.", TXT)
        checked = restrict_to_language(p, well_formed)
        sentences = sentence_splitter(TXT)
        assert not is_self_splittable(checked, sentences)
        assert self_splittable_with_filter(checked, sentences)

    def test_theorem_7_7(self):
        alphabet = frozenset("hab")
        p = compile_regex_formula("(h)y{a}(a|b)*", alphabet)
        splitter = compile_regex_formula("(h)x{a(a|b)*}", alphabet)
        assert splittable_with_filter(p, splitter)


class TestAnnotatedSplitters:
    def _setup(self):
        alphabet = frozenset("gp#ab")
        get_records = compile_regex_formula(
            "(.*\\#)?x{g(g|p|a|b)*}((\\#).*)?", alphabet
        )
        post_records = compile_regex_formula(
            "(.*\\#)?x{p(g|p|a|b)*}((\\#).*)?", alphabet
        )
        annotated = AnnotatedSplitter(
            {"GET": get_records, "POST": post_records}
        )
        spanner = compile_regex_formula(
            "((.*\\#)?(g)(g|p|a|b)*y{a}(g|p|a|b)*((\\#).*)?)"
            "|((.*\\#)?(p)(g|p|a|b)*y{b}(g|p|a|b)*((\\#).*)?)",
            alphabet,
        )
        mapping = {
            "GET": compile_regex_formula("(g)(g|p|a|b)*y{a}(g|p|a|b)*",
                                         alphabet),
            "POST": compile_regex_formula("(p)(g|p|a|b)*y{b}(g|p|a|b)*",
                                          alphabet),
        }
        return alphabet, annotated, spanner, mapping

    def test_evaluate_keys(self):
        _alphabet, annotated, _spanner, _mapping = self._setup()
        result = annotated.evaluate("gab#pab")
        assert ("GET", Span(1, 4)) in result
        assert ("POST", Span(5, 8)) in result
        assert len(result) == 2

    def test_highlander(self):
        _alphabet, annotated, _spanner, _mapping = self._setup()
        assert annotated.is_highlander()

    def test_not_highlander_when_keys_overlap(self):
        splitter = whole_document_splitter(AB)
        doubled = AnnotatedSplitter({"k1": splitter, "k2": splitter})
        assert not doubled.is_highlander()

    def test_theorem_e3(self):
        _alphabet, annotated, spanner, mapping = self._setup()
        assert annotated_split_correct(spanner, mapping, annotated)
        swapped = {"GET": mapping["POST"], "POST": mapping["GET"]}
        assert not annotated_split_correct(spanner, swapped, annotated)

    def test_theorem_e4_highlander_fast_path(self):
        _alphabet, annotated, spanner, mapping = self._setup()
        det_annotated = AnnotatedSplitter(
            {key: determinize(s) for key, s in annotated.keyed.items()}
        )
        det_spanner = determinize(spanner)
        det_mapping = {key: determinize(s) for key, s in mapping.items()}
        assert annotated_split_correct_highlander(
            det_spanner, det_mapping, det_annotated
        )
        swapped = {"GET": det_mapping["POST"], "POST": det_mapping["GET"]}
        assert not annotated_split_correct_highlander(
            det_spanner, swapped, det_annotated
        )

    def test_theorem_e4_tuple_covered_by_two_keys(self):
        # On "a" the key "whole" splits [1,2> and "end" the empty
        # [2,2>; the 0-ary tuple needs only the first.
        alphabet = frozenset("ab")
        annotated = AnnotatedSplitter({
            "whole": determinize(compile_regex_formula("x{a}", alphabet)),
            "end": determinize(compile_regex_formula("a(x{})", alphabet)),
        })
        spanner = determinize(compile_regex_formula("a", alphabet))
        mapping = {"whole": spanner, "end": spanner}
        assert annotated.is_highlander()
        assert annotated_split_correct(spanner, mapping, annotated)
        assert annotated_split_correct_highlander(spanner, mapping,
                                                  annotated)
        empty = determinize(compile_regex_formula("b", alphabet))
        assert not annotated_split_correct_highlander(
            spanner, {"whole": empty, "end": spanner}, annotated)

    def test_theorem_e7_canonical_mapping(self):
        _alphabet, annotated, spanner, _mapping = self._setup()
        assert annotated_splittable(spanner, annotated)
        mapping = canonical_key_mapping(spanner, annotated)
        assert annotated_split_correct(spanner, mapping, annotated)

    def test_compose_annotated_semantics(self):
        _alphabet, annotated, spanner, mapping = self._setup()
        composed = compose_annotated(mapping, annotated)
        doc = "gaab#pbb"
        expected = set()
        for key, span in annotated.evaluate(doc):
            chunk = span.extract(doc)
            for t in mapping[key].evaluate(chunk):
                expected.add(t.shift(span))
        assert composed.evaluate(doc) == expected

    def test_from_annotation(self):
        splitter = compile_regex_formula("x{a*}|x{b(a|b)*}", AB)
        annotation = {
            final: ("A" if "a" in str(final) or True else "B")
            for final in splitter.nfa.finals
        }
        annotated = AnnotatedSplitter.from_annotation(splitter, annotation)
        assert set(annotated.keys()) == set(annotation.values())

    def test_missing_mapping_key_rejected(self):
        _alphabet, annotated, _spanner, mapping = self._setup()
        with pytest.raises(ValueError):
            compose_annotated({"GET": mapping["GET"]}, annotated)
