"""Unit and property tests for spans and span tuples (Section 2)."""

import copy
import operator
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given
import hypothesis.strategies as st

from repro.core.spans import (
    EMPTY_TUPLE,
    Span,
    SpanTuple,
    all_spans,
    trusted_span,
    whole_span,
)
from repro.runtime.fast import RegexSpanner
from repro.splitters.builders import executor_named, known_splitter_names
from tests.conftest import spans_st
from tests.reference import ReferenceSpan, ReferenceSpanTuple


class TestSpan:
    def test_figure_1_shift(self):
        # Figure 1 of the paper: [2,6> >> [7,13> = [8,12>.
        assert Span(2, 6) >> Span(7, 13) == Span(8, 12)

    def test_invalid_spans_rejected(self):
        with pytest.raises(ValueError):
            Span(0, 1)
        with pytest.raises(ValueError):
            Span(3, 2)

    def test_empty_span_allowed(self):
        assert Span(4, 4).length == 0

    def test_extract(self):
        assert Span(2, 4).extract("abcde") == "bc"
        assert Span(1, 6).extract("abcde") == "abcde"
        assert Span(3, 3).extract("abcde") == ""

    def test_extract_out_of_range(self):
        with pytest.raises(ValueError):
            Span(2, 8).extract("abc")

    def test_overlap_paper_definition(self):
        assert Span(1, 3).overlaps(Span(2, 4))
        assert Span(2, 4).overlaps(Span(1, 3))
        assert not Span(1, 3).overlaps(Span(3, 5))
        # Empty span inside a non-empty one overlaps it.
        assert Span(1, 3).overlaps(Span(2, 2))
        # Equal empty spans do not overlap.
        assert not Span(2, 2).overlaps(Span(2, 2))
        # Adjacent spans are disjoint.
        assert Span(1, 2).disjoint(Span(2, 3))

    def test_contains(self):
        assert Span(1, 5).contains(Span(2, 3))
        assert Span(1, 5).contains(Span(1, 5))
        assert Span(1, 5).contains(Span(3, 3))
        assert not Span(2, 4).contains(Span(1, 3))

    def test_unshift_requires_containment(self):
        with pytest.raises(ValueError):
            Span(1, 3).unshift(Span(2, 5))

    @given(spans_st(), spans_st())
    def test_shift_unshift_roundtrip(self, inner, context):
        shifted = inner.shift(context)
        # Shifting never shrinks below the context start.
        assert shifted.begin >= context.begin
        if context.contains(shifted):
            assert shifted.unshift(context) == inner

    @given(spans_st(), spans_st(), spans_st())
    def test_shift_associative(self, s1, s2, s3):
        # The associativity used in the proof of Lemma 6.5.
        assert (s1 >> s2) >> s3 == s1 >> (s2 >> s3)

    @given(spans_st(), spans_st())
    def test_overlap_symmetric(self, s1, s2):
        assert s1.overlaps(s2) == s2.overlaps(s1)

    def test_all_spans_count(self):
        # |Spans(d)| = (n+1)(n+2)/2.
        assert len(list(all_spans("abc"))) == 10
        assert len(list(all_spans(""))) == 1

    def test_whole_span(self):
        assert whole_span("abc") == Span(1, 4)
        assert whole_span("") == Span(1, 1)


# ----------------------------------------------------------------------
# The tuple-backed Span against the dataclass it replaced
# ----------------------------------------------------------------------

def as_reference(span):
    return ReferenceSpan(span.begin, span.end)


def pair(span):
    return span.begin, span.end


#: Documents short enough that some drawn spans overrun them.
SHORT_TEXTS = st.text(alphabet="ab .", max_size=10)


class TestSpanAgreesWithTheReference:
    @given(spans_st(), spans_st())
    def test_comparisons_hash_and_repr(self, left, right):
        ref_left, ref_right = as_reference(left), as_reference(right)
        for compare in (operator.eq, operator.ne, operator.lt, operator.le,
                        operator.gt, operator.ge):
            assert compare(left, right) == compare(ref_left, ref_right)
        assert hash(left) == hash(ref_left)
        assert repr(left) == repr(ref_left)
        assert left.length == ref_left.length
        assert (len({left, right, Span(*pair(left))})
                == len({ref_left, ref_right}))

    @given(spans_st(), spans_st())
    def test_overlaps_contains_shift_unshift(self, left, right):
        ref_left, ref_right = as_reference(left), as_reference(right)
        assert left.overlaps(right) == ref_left.overlaps(ref_right)
        assert left.disjoint(right) == ref_left.disjoint(ref_right)
        assert left.contains(right) == ref_left.contains(ref_right)
        shifted = left.shift(right)
        assert type(shifted) is Span and type(left >> right) is Span
        assert pair(shifted) == pair(left >> right) \
            == pair(ref_left.shift(ref_right))
        assert outcome(lambda: pair(left.unshift(right))) \
            == outcome(lambda: pair(ref_left.unshift(ref_right)))
        if right.contains(left):
            assert type(left.unshift(right)) is Span

    @given(spans_st(), SHORT_TEXTS)
    def test_extract(self, span, document):
        assert outcome(lambda: span.extract(document)) \
            == outcome(lambda: as_reference(span).extract(document))

    def test_a_span_equals_the_pair_of_its_offsets(self):
        # New with the tuple representation: ``==``, ``<`` and ``hash``
        # are the pair's, so a Span equals a plain tuple.  The dataclass
        # equalled only spans.
        assert Span(1, 2) == (1, 2) and hash(Span(1, 2)) == hash((1, 2))
        assert Span(1, 2) < (1, 3)
        assert ReferenceSpan(1, 2) != (1, 2)
        begin, end = Span(3, 7)
        assert (begin, end) == (3, 7)


class TestSpanValidation:
    def test_every_way_in_checks_the_offsets(self):
        for begin, end in ((0, 1), (3, 2), (0, 0), (-2, 5)):
            with pytest.raises(ValueError):
                Span(begin, end)
            with pytest.raises(ValueError):
                Span._make((begin, end))
            forged = trusted_span(begin, end)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                blob = pickle.dumps(forged, protocol)
                with pytest.raises(ValueError):
                    pickle.loads(blob)
            for duplicate in (copy.copy, copy.deepcopy, Span._replace):
                with pytest.raises(ValueError):
                    duplicate(forged)
        with pytest.raises(ValueError):
            Span(2, 5)._replace(begin=6)
        with pytest.raises(ValueError):
            Span(2, 5)._replace(end=1)
        with pytest.raises(TypeError):
            Span._make((1, 2, 3))

    def test_a_hand_written_pickle_is_checked(self):
        # Protocol 2's NEWOBJ calls ``Span.__new__(Span, 0, 1)`` without
        # going through ``__reduce__``.
        blob = b"\x80\x02crepro.core.spans\nSpan\nK\x00K\x01\x86\x81."
        with pytest.raises(ValueError):
            pickle.loads(blob)
        assert pickle.loads(blob.replace(b"K\x00", b"K\x01")) == Span(1, 1)

    @given(spans_st())
    def test_valid_spans_survive_every_way_in(self, span):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(span, protocol))
            assert clone == span and type(clone) is Span
        for clone in (copy.copy(span), copy.deepcopy(span),
                      span._replace(), Span._make(span), Span(*span)):
            assert clone == span and type(clone) is Span

    @pytest.mark.parametrize("name", [
        name.replace("<N>", "3") for name in known_splitter_names()])
    @given(document=st.text(alphabet="ab .\n#", max_size=24))
    def test_every_registry_scanner_yields_valid_spans(self, name, document):
        scanner = executor_named(name, "ab .\n#")
        spans = scanner.splits(document)
        chunks = scanner.chunks_of(document)
        assert [span for span, _text in chunks] == spans
        for span, text in chunks:
            assert type(span) is Span and Span(*span) == span
            assert span.extract(document) == text

    @given(document=st.text(alphabet="ab ", max_size=16))
    def test_regex_spanner_yields_valid_spans(self, document):
        spanner = RegexSpanner(r"(?=(?P<x>a+)(?P<y>b*))")
        for result in spanner.evaluate(document):
            x, y = result["x"], result["y"]
            assert Span(*x) == x and Span(*y) == y
            assert set(x.extract(document)) == {"a"}
            assert set(y.extract(document)) <= {"b"} and x.end == y.begin

    def test_a_span_fingerprints_as_a_span_not_as_a_pair(self):
        # ``_canonical_value`` dispatches on ``isinstance(value,
        # tuple)``, which a Span now matches: it must still describe as
        # a span, and a span attribute must reach the fingerprint.
        from repro.engine.cache import _canonical_value, fingerprint

        assert _canonical_value(Span(8, 12)) == "Span(8, 12)"
        assert _canonical_value((Span(8, 12),)) == "tuple(Span(8, 12))"
        assert _canonical_value(Span(8, 12)) != _canonical_value((8, 12))

        class Windowed:
            def __init__(self, window):
                self.window = window

        assert fingerprint(Windowed(Span(1, 4))) \
            == fingerprint(Windowed(Span(1, 4)))
        assert fingerprint(Windowed(Span(1, 4))) \
            != fingerprint(Windowed(Span(2, 4)))
        assert fingerprint(Windowed(Span(1, 4))) \
            != fingerprint(Windowed((1, 4)))


class TestSpanTuple:
    def test_mapping_interface(self):
        t = SpanTuple({"x": Span(1, 2), "y": Span(2, 4)})
        assert t["x"] == Span(1, 2)
        assert set(t) == {"x", "y"}
        assert len(t) == 2

    def test_equality_and_hash(self):
        t1 = SpanTuple({"x": Span(1, 2)})
        t2 = SpanTuple({"x": Span(1, 2)})
        assert t1 == t2
        assert hash(t1) == hash(t2)
        assert len({t1, t2}) == 1

    def test_shift_componentwise(self):
        t = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        shifted = t >> Span(5, 9)
        assert shifted["x"] == Span(5, 6)
        assert shifted["y"] == Span(6, 7)

    def test_enclosing_span(self):
        t = SpanTuple({"x": Span(2, 4), "y": Span(3, 7)})
        assert t.enclosing_span() == Span(2, 7)

    def test_empty_tuple_has_no_enclosure(self):
        with pytest.raises(ValueError):
            EMPTY_TUPLE.enclosing_span()

    def test_covered_by(self):
        t = SpanTuple({"x": Span(2, 4), "y": Span(3, 7)})
        assert t.covered_by(Span(1, 7))
        assert t.covered_by(Span(2, 7))
        assert not t.covered_by(Span(3, 7))
        # The 0-ary tuple is covered by anything (Definition 5.2).
        assert EMPTY_TUPLE.covered_by(Span(5, 5))

    def test_join_agreement(self):
        t1 = SpanTuple({"x": Span(1, 2), "y": Span(2, 3)})
        t2 = SpanTuple({"y": Span(2, 3), "z": Span(3, 4)})
        joined = t1.join(t2)
        assert set(joined) == {"x", "y", "z"}
        t3 = SpanTuple({"y": Span(1, 3)})
        assert not t1.agrees_with(t3)
        with pytest.raises(ValueError):
            t1.join(t3)

    @given(spans_st(), spans_st())
    def test_tuple_shift_matches_span_shift(self, inner, context):
        t = SpanTuple({"x": inner})
        assert (t >> context)["x"] == inner >> context


# ----------------------------------------------------------------------
# The flat SpanTuple against the dict-backed one it replaced
# ----------------------------------------------------------------------

#: ``1`` and ``"1"`` have the same ``str``: their column order needs
#: the tiebreak, or ``==``/``hash`` would depend on insertion order.
VARIABLES = ["x", "y", "z", 1, "1", 2, "10"]


@st.composite
def assignments_st(draw):
    """``(assignment, the same assignment inserted in another order)``:
    0-4 variables, str and int names, empty spans included."""
    variables = draw(st.lists(st.sampled_from(VARIABLES), max_size=4,
                              unique_by=lambda v: (type(v), v)))
    assignment = {variable: draw(spans_st()) for variable in variables}
    shuffled = draw(st.permutations(variables))
    return assignment, {variable: assignment[variable]
                        for variable in shuffled}


def outcome(operation):
    """An operation's value, or the type of the exception it raised."""
    try:
        return operation()
    except (KeyError, ValueError) as error:
        return type(error)


class TestFlatSpanTupleAgreesWithTheReference:
    @given(assignments_st())
    def test_mapping_protocol_equality_and_hash(self, drawn):
        assignment, shuffled = drawn
        flat, other = SpanTuple(assignment), SpanTuple(shuffled)
        ref = ReferenceSpanTuple(assignment)
        assert flat == ref and ref == flat
        assert flat == assignment and assignment == flat
        assert flat == other and hash(flat) == hash(other)
        assert flat.variables() == other.variables()
        assert len({flat, other}) == 1
        assert len(flat) == len(ref) and set(flat) == set(ref)
        assert dict(flat.items()) == dict(ref.items()) == assignment
        for variable in VARIABLES:
            assert (variable in flat) == (variable in ref)
            assert outcome(lambda: flat[variable]) \
                == outcome(lambda: ref[variable])
        assert outcome(lambda: flat["missing"]) is KeyError
        assert [(variable, Span(begin, end))
                for variable, begin, end in flat.columns()] \
            == [(variable, flat[variable]) for variable in flat.variables()]

    @given(assignments_st())
    def test_variables_and_repr(self, drawn):
        assignment, shuffled = drawn
        flat = SpanTuple(shuffled)
        # The stored order refines the reference's sort by str ...
        assert list(map(str, flat.variables())) \
            == sorted(map(str, assignment))
        assert sorted(flat.variables(), key=str) == list(flat.variables())
        # ... and inserted in that order the reference prints the same.
        in_order = ReferenceSpanTuple(
            {variable: assignment[variable] for variable in flat.variables()})
        assert repr(flat) == repr(in_order)
        assert in_order.variables() == flat.variables()

    @given(assignments_st(), spans_st(), spans_st())
    def test_shift_unshift_enclosure_and_cover(self, drawn, context, probe):
        assignment, _shuffled = drawn
        flat, ref = SpanTuple(assignment), ReferenceSpanTuple(assignment)
        assert flat.shift(context) == ref.shift(context)
        assert flat >> context == ref >> context
        roomy = Span(context.begin, context.begin + 20)
        assert flat.shift(roomy).unshift(roomy) == flat
        assert outcome(lambda: flat.unshift(probe)) \
            == outcome(lambda: ref.unshift(probe))
        assert outcome(flat.enclosing_span) == outcome(ref.enclosing_span)
        assert flat.covered_by(probe) == ref.covered_by(probe)

    @pytest.mark.parametrize("arity", [0, 1, 2, 4])
    @given(data=st.data())
    def test_shift_fast_path_by_arity(self, arity, data):
        # ``shift`` spells out the unary tuple's two adds, returns the
        # 0-ary tuple itself and adds in a list otherwise: every branch
        # against the reference over dataclass spans, by contexts far
        # past the tuple's own positions.
        variables = data.draw(st.permutations(["x", "y", "z", 1]))[:arity]
        assignment = {variable: data.draw(spans_st(max_position=30))
                      for variable in variables}
        context = data.draw(spans_st(max_position=10_000))
        flat = SpanTuple(assignment)
        ref = ReferenceSpanTuple({variable: as_reference(span)
                                  for variable, span in assignment.items()})
        expected = ref.shift(as_reference(context))
        for shifted in (flat.shift(context), flat >> context):
            assert dict(shifted) == {variable: pair(span)
                                     for variable, span in expected.items()}
            assert repr(shifted) == repr(expected)
            assert shifted.variables() == flat.variables()
            rebuilt = SpanTuple(dict(shifted))
            assert shifted == rebuilt and hash(shifted) == hash(rebuilt)
            assert all(type(shifted[variable]) is Span
                       for variable in shifted)
            assert pickle.loads(pickle.dumps(shifted)) == shifted
            if shifted.covered_by(context):
                assert shifted.unshift(context) == flat

    @given(assignments_st(), assignments_st())
    def test_join_and_agreement(self, left, right):
        flat_left, flat_right = SpanTuple(left[0]), SpanTuple(right[1])
        ref_left = ReferenceSpanTuple(left[0])
        ref_right = ReferenceSpanTuple(right[0])
        assert flat_left.agrees_with(flat_right) \
            == ref_left.agrees_with(ref_right)
        assert outcome(lambda: flat_left.join(flat_right)) \
            == outcome(lambda: ref_left.join(ref_right))

    @given(assignments_st())
    def test_pickle_round_trip(self, drawn):
        flat = SpanTuple(drawn[0])
        for protocol in (2, 5):
            clone = pickle.loads(pickle.dumps(flat, protocol))
            assert clone == flat and hash(clone) == hash(flat)
            assert clone.variables() == flat.variables()

    def test_invalid_spans_rejected_at_public_construction(self):
        with pytest.raises(ValueError):
            SpanTuple({"x": Span(3, 2)})
        # The constructor checks for itself: positions are stored as
        # plain ints, and 0 is the kernel's "not set".
        for begin, end in ((0, 1), (3, 2)):
            with pytest.raises(ValueError):
                SpanTuple({"x": SimpleNamespace(begin=begin, end=end)})

    def test_a_relation_pickles_as_ints(self):
        # What a pool worker returns per chunk: one small set.  The
        # dict-of-Span form took 55 577 bytes here.
        relations = [{SpanTuple({"y": Span(i + 1, i + 1 + i % 7)})}
                     for i in range(1000)]
        blob = pickle.dumps(relations)
        assert len(blob) <= 32_000
        assert pickle.loads(blob) == relations
