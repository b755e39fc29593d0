"""Spans, span tuples, and the shift operator (Section 2 of the paper).

A *span* ``[i, j>`` of a document ``d`` marks the substring starting at
(1-based) position ``i`` and ending just before position ``j``; the
paper's Figure 1 example ``[2,6> >> [7,13> = [8,12>`` is reproduced in
the doctests below.

>>> Span(2, 6) >> Span(7, 13)
Span(8, 12)
"""

from __future__ import annotations

from itertools import chain
from typing import (Dict, Hashable, Iterable, Iterator, Mapping, NamedTuple,
                    Tuple)

Variable = Hashable

_tuple_new = tuple.__new__
_new_object = object.__new__


class _SpanFields(NamedTuple):
    begin: int
    end: int


class Span(_SpanFields):
    """A span ``[begin, end>`` with ``1 <= begin <= end``.

    Positions are 1-based and ``end`` is exclusive, exactly matching
    the paper's ``[i, j>`` notation; the empty span at position ``i``
    is ``Span(i, i)``.

    Stored as the pair ``(begin, end)``: ``==``, ``<`` and ``hash`` are
    the pair's, so ``Span(1, 2) == (1, 2)``.  Every public way in —
    the constructor, :meth:`_make`, ``_replace``, ``pickle`` and
    ``copy`` — checks the offsets; producers that guarantee them by
    construction use :func:`trusted_span` instead.
    """

    __slots__ = ()

    def __new__(cls, begin: int, end: int) -> "Span":
        if not 1 <= begin <= end:
            raise ValueError(f"invalid span [{begin}, {end}>")
        return _tuple_new(cls, (begin, end))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Span":
        # namedtuple's ``_make`` (which ``_replace`` calls) builds the
        # tuple directly, past ``__new__``.
        return cls(*iterable)

    def __reduce__(self):
        return Span, (self.begin, self.end)

    def __repr__(self) -> str:
        return f"Span({self.begin}, {self.end})"

    @property
    def length(self) -> int:
        """Number of characters covered."""
        return self.end - self.begin

    def extract(self, document: str) -> str:
        """The substring ``d[i,j>`` of ``document``.

        >>> Span(2, 4).extract("abcde")
        'bc'
        """
        if self.end > len(document) + 1:
            raise ValueError(f"{self!r} is not a span of a document of "
                             f"length {len(document)}")
        return document[self.begin - 1 : self.end - 1]

    def shift(self, context: "Span") -> "Span":
        """The shift operator ``self >> context`` (Section 3).

        If ``self`` is a span of the substring ``d[context>``, the
        result marks the same region inside the original document:
        ``[i', j'> >> [i, j> = [i' + (i-1), j' + (i-1)>``.

        >>> Span(2, 6).shift(Span(7, 13))
        Span(8, 12)
        """
        offset = context.begin - 1
        return trusted_span(self.begin + offset, self.end + offset)

    def __rshift__(self, context: "Span") -> "Span":
        return self.shift(context)

    def unshift(self, context: "Span") -> "Span":
        """Inverse of :meth:`shift`: re-express within ``context``.

        Requires ``context`` to contain ``self``.
        """
        if not context.contains(self):
            raise ValueError(f"{context!r} does not contain {self!r}")
        offset = context.begin - 1
        return trusted_span(self.begin - offset, self.end - offset)

    def overlaps(self, other: "Span") -> bool:
        """Paper definition: ``[i,j>`` and ``[i',j'>`` overlap iff
        ``i <= i' < j`` or ``i' <= i < j'``.

        >>> Span(1, 3).overlaps(Span(2, 2))
        True
        >>> Span(2, 2).overlaps(Span(2, 2))
        False
        """
        return (self.begin <= other.begin < self.end) or (
            other.begin <= self.begin < other.end
        )

    def disjoint(self, other: "Span") -> bool:
        """Negation of :meth:`overlaps`."""
        return not self.overlaps(other)

    def contains(self, other: "Span") -> bool:
        """``[i,j>`` contains ``[i',j'>`` iff ``i <= i' <= j' <= j``."""
        return self.begin <= other.begin and other.end <= self.end


def trusted_span(begin: int, end: int) -> Span:
    """The trusted constructor: a :class:`Span` with nothing checked.

    ``1 <= begin <= end`` must already hold.  For producers that
    guarantee it by construction — the splitter scanners and
    ``RegexSpanner`` (:mod:`repro.runtime.fast`, ``re`` offsets plus
    one), :meth:`Span.shift`, :meth:`Span.unshift` after its
    containment check, and :class:`SpanTuple`'s accessors over stored
    positions.
    """
    return _tuple_new(Span, (begin, end))


def whole_span(document: str) -> Span:
    """The span ``[1, |d|+1>`` covering all of ``document``."""
    return Span(1, len(document) + 1)


def all_spans(document: str) -> Iterator[Span]:
    """Enumerate ``Spans(d)``: every ``[i,j>`` with ``1<=i<=j<=|d|+1``."""
    n = len(document)
    for i in range(1, n + 2):
        for j in range(i, n + 2):
            yield Span(i, j)


def column_order(variables: Iterable[Variable]) -> Tuple[Variable, ...]:
    """The canonical column order of a set of variables: by ``str``,
    ties (``1`` and ``"1"``) broken by ``repr`` — so the order, and
    with it ``==``/``hash`` of a :class:`SpanTuple`, never depends on
    the order the variables were inserted in."""
    return tuple(sorted(variables, key=lambda v: (str(v), repr(v))))


class SpanTuple(Mapping[Variable, Span]):
    """An immutable ``(V, d)``-tuple: a mapping from variables to spans.

    Stored flat: ``variables`` in :func:`column_order` and
    ``positions = (b1, e1, b2, e2, ...)``, plain ints in that column
    order.  The kernel emits this form as it is, the chunk cache keeps
    it, a pool worker's result pickles as ints (the ``variables`` tuple
    of a relation is shared, so it is written once), and
    :meth:`shift` is one integer add per position.  :class:`Span`
    objects are built on access; :meth:`columns` reads the ints
    without building any.

    Hashable so span relations can be plain Python sets.

    >>> t = SpanTuple({"x": Span(1, 3)})
    >>> t["x"]
    Span(1, 3)
    >>> t >> Span(4, 8)
    SpanTuple({'x': Span(4, 6)})
    >>> list(t.columns())
    [('x', 1, 3)]
    """

    __slots__ = ("_variables", "_positions", "_hash")

    def __init__(self, assignment: Mapping[Variable, Span]) -> None:
        assignment = dict(assignment)
        variables = column_order(assignment)
        positions = []
        for variable in variables:
            span = assignment[variable]
            if not 1 <= span.begin <= span.end:
                raise ValueError(f"invalid span [{span.begin}, {span.end}>")
            positions += (span.begin, span.end)
        self._variables = variables
        self._positions = tuple(positions)
        self._hash = hash(self._positions)

    def __reduce__(self):
        return flat_span_tuple, (self._variables, self._positions)

    def columns(self) -> Iterator[Tuple[Variable, int, int]]:
        """``(variable, begin, end)`` per variable, in
        :meth:`variables` order — what a serialiser reads, with no
        :class:`Span` built."""
        positions = self._positions
        return zip(self._variables, positions[::2], positions[1::2])

    def __getitem__(self, variable: Variable) -> Span:
        try:
            k = 2 * self._variables.index(variable)
        except ValueError:
            raise KeyError(variable) from None
        return trusted_span(self._positions[k], self._positions[k + 1])

    def __contains__(self, variable: object) -> bool:
        return variable in self._variables

    def __iter__(self) -> Iterator[Variable]:
        return iter(self._variables)

    def __len__(self) -> int:
        return len(self._variables)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SpanTuple):
            return (self._positions == other._positions
                    and self._variables == other._variables)
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        items = ", ".join(f"{var!r}: Span({begin}, {end})"
                          for var, begin, end in self.columns())
        return f"SpanTuple({{{items}}})"

    def shift(self, context: Span) -> "SpanTuple":
        """Component-wise shift ``t >> s`` (Section 3).

        The merge's hot loop — one call per result tuple per chunk
        instance — so it adds the offset itself and sets the new
        tuple's slots, with the unary tuple's two adds spelled out."""
        offset = context.begin - 1
        positions = self._positions
        if len(positions) == 2:
            positions = (positions[0] + offset, positions[1] + offset)
        elif positions:
            positions = tuple([position + offset for position in positions])
        else:
            return self
        shifted = _new_object(SpanTuple)
        shifted._variables = self._variables
        shifted._positions = positions
        shifted._hash = hash(positions)
        return shifted

    def __rshift__(self, context: Span) -> "SpanTuple":
        return self.shift(context)

    def unshift(self, context: Span) -> "SpanTuple":
        """Component-wise inverse shift; ``context`` must cover the tuple."""
        if not self.covered_by(context):
            raise ValueError(f"{context!r} does not contain {self!r}")
        return flat_span_tuple(
            self._variables,
            tuple(map((1 - context.begin).__add__, self._positions)),
        )

    def variables(self) -> Tuple[Variable, ...]:
        """The variables in column order (:func:`column_order`)."""
        return self._variables

    def positions(self) -> Tuple[int, ...]:
        """The flat ``(b1, e1, b2, e2, ...)`` ints in column order.

        Over tuples of the same variables, ordering by these orders
        by the spans column by column."""
        return self._positions

    def enclosing_span(self) -> Span:
        """The minimal span containing every span of the tuple.

        This is the span ``[i, j>`` from the proof of Lemma 5.3; for the
        empty (0-ary) tuple there is no enclosure and ``ValueError`` is
        raised.
        """
        if not self._positions:
            raise ValueError("the 0-ary tuple has no enclosing span")
        # Every span has begin <= end: the extremes of the flat
        # positions are the least begin and the greatest end.
        return trusted_span(min(self._positions), max(self._positions))

    def covered_by(self, span: Span) -> bool:
        """Whether ``span`` contains every span of the tuple (Def 5.2).

        The 0-ary tuple is covered by every span.
        """
        positions = self._positions
        return not positions or (span.begin <= min(positions)
                                 and max(positions) <= span.end)

    def _pairs(self) -> Dict[Variable, Tuple[int, int]]:
        positions = self._positions
        return dict(zip(self._variables,
                        zip(positions[::2], positions[1::2])))

    def agrees_with(self, other: "SpanTuple") -> bool:
        """Whether the tuples agree on their shared variables (join)."""
        theirs = other._pairs()
        return all(theirs.get(var, pair) == pair
                   for var, pair in self._pairs().items())

    def join(self, other: "SpanTuple") -> "SpanTuple":
        """The combined tuple (requires :meth:`agrees_with`)."""
        if not self.agrees_with(other):
            raise ValueError("tuples disagree on shared variables")
        merged = {**self._pairs(), **other._pairs()}
        variables = column_order(merged)
        return flat_span_tuple(
            variables,
            tuple(chain.from_iterable(merged[var] for var in variables)),
        )


def flat_span_tuple(variables: Tuple[Variable, ...],
                    positions: Tuple[int, ...]) -> SpanTuple:
    """The trusted constructor: a :class:`SpanTuple` from its stored
    form, nothing checked or copied.

    ``variables`` must be in :func:`column_order` and ``positions``
    hold a valid ``begin, end`` pair per variable.  For producers that
    guarantee both by construction — the compiled kernel's search, the
    methods above, and ``pickle`` (this is what a tuple reduces to).
    """
    self = _new_object(SpanTuple)
    self._variables = variables
    self._positions = positions
    self._hash = hash(positions)
    return self


#: The unique 0-ary tuple (output of Boolean spanners).
EMPTY_TUPLE = SpanTuple({})
