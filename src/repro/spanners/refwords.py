"""Ref-words: documents extended with variable operations (Section 4).

A ref-word over variables ``V`` is a word over ``Sigma + Gamma_V`` where
``Gamma_V = {x|- , -|x : x in V}`` encodes the opening and closing of
capture variables.  A ref-word is *valid* when every variable is opened
exactly once and closed exactly once, after its opening.  Valid
ref-words are in correspondence with (document, tuple) pairs via the
``clr`` morphism and the factorization of Section 4; this module
implements that correspondence plus the fixed total order on variable
operations that the paper's notion of determinism relies on
(Section 4.2: ``v|- < -|v`` for every variable ``v``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Sequence,
    Tuple,
)

from repro.core.spans import Span, SpanTuple

Variable = Hashable
Symbol = Hashable


@dataclass(frozen=True, order=False)
class VarOp:
    """A variable operation: ``Open(x)`` is ``x|-``, ``Close(x)`` is ``-|x``."""

    variable: Variable
    is_close: bool

    def __repr__(self) -> str:
        return f"-|{self.variable}" if self.is_close else f"{self.variable}|-"

    @property
    def order_key(self) -> Tuple[str, int]:
        """Key realizing the paper's fixed total order on ``Gamma``.

        Operations are ordered primarily by variable name and then open
        before close, so ``v|- < -|v`` holds for every variable as
        required by determinism condition (2).
        """
        return (str(self.variable), int(self.is_close))

    def __lt__(self, other: "VarOp") -> bool:
        return self.order_key < other.order_key

    def __le__(self, other: "VarOp") -> bool:
        return self.order_key <= other.order_key


def Open(variable: Variable) -> VarOp:
    """The opening operation ``x|-``."""
    return VarOp(variable, False)


def Close(variable: Variable) -> VarOp:
    """The closing operation ``-|x``."""
    return VarOp(variable, True)


def gamma(variables: Iterable[Variable]) -> FrozenSet[VarOp]:
    """The operation alphabet ``Gamma_V``."""
    ops = set()
    for variable in variables:
        ops.add(Open(variable))
        ops.add(Close(variable))
    return frozenset(ops)


def clr(refword: Sequence[Symbol]) -> Tuple[Symbol, ...]:
    """The ``clr`` morphism: erase all variable operations.

    >>> clr(("a", Open("x"), "b", Close("x")))
    ('a', 'b')
    """
    return tuple(symbol for symbol in refword if not isinstance(symbol, VarOp))


def clr_string(refword: Sequence[Symbol]) -> str:
    """Like :func:`clr` but joining single-character symbols to a string."""
    return "".join(str(s) for s in refword if not isinstance(s, VarOp))


def is_valid(refword: Sequence[Symbol], variables: Iterable[Variable]) -> bool:
    """Whether the ref-word is valid for ``variables``.

    Every variable must be opened exactly once and closed exactly once,
    with the close after the open.
    """
    expected = set(variables)
    opened: Dict[Variable, int] = {}
    closed: Dict[Variable, int] = {}
    for index, symbol in enumerate(refword):
        if not isinstance(symbol, VarOp):
            continue
        var = symbol.variable
        if var not in expected:
            return False
        if symbol.is_close:
            if var in closed or var not in opened:
                return False
            closed[var] = index
        else:
            if var in opened:
                return False
            opened[var] = index
    return set(opened) == expected and set(closed) == expected


def tuple_of(
    refword: Sequence[Symbol], variables: Iterable[Variable]
) -> SpanTuple:
    """The ``(V, d)``-tuple ``t_r`` encoded by a valid ref-word.

    Implements the factorization of Section 4: ``t_r(x) = [i, j>`` with
    ``i = |clr(r_pre)| + 1`` and ``j = i + |clr(r_x)|``.

    >>> tuple_of(("a", Open("x"), "b", Close("x")), {"x"})
    SpanTuple({'x': Span(2, 3)})
    """
    variables = set(variables)
    if not is_valid(refword, variables):
        raise ValueError(f"ref-word {refword!r} is not valid for {variables!r}")
    assignment: Dict[Variable, Span] = {}
    position = 1
    open_positions: Dict[Variable, int] = {}
    for symbol in refword:
        if isinstance(symbol, VarOp):
            if symbol.is_close:
                assignment[symbol.variable] = Span(
                    open_positions[symbol.variable], position
                )
            else:
                open_positions[symbol.variable] = position
        else:
            position += 1
    return SpanTuple(assignment)


def canonical_refword(
    document: Sequence[Symbol], span_tuple: SpanTuple
) -> Tuple[Symbol, ...]:
    """The unique *ordered* ref-word for ``(document, span_tuple)``.

    At every document gap the variable operations are sorted by the
    fixed total order; this is the ref-word a deterministic
    VSet-automaton (Section 4.2) would produce (cf. Observation B.1).

    >>> canonical_refword("ab", SpanTuple({"x": Span(2, 3)}))
    ('a', x|-, 'b', -|x)
    """
    n = len(document)
    ops_at: Dict[int, List[VarOp]] = {}
    for variable in span_tuple:
        span = span_tuple[variable]
        if span.end > n + 1:
            raise ValueError(f"{span!r} is not a span of the document")
        ops_at.setdefault(span.begin, []).append(Open(variable))
        ops_at.setdefault(span.end, []).append(Close(variable))
    result: List[Symbol] = []
    for gap in range(1, n + 2):
        result.extend(sorted(ops_at.get(gap, [])))
        if gap <= n:
            result.append(document[gap - 1])
    return tuple(result)


def block_decomposition(
    refword: Sequence[Symbol],
) -> Tuple[Tuple[FrozenSet[VarOp], ...], Tuple[Symbol, ...]]:
    """Split a ref-word into operation blocks around document letters.

    Returns ``(blocks, letters)`` where ``len(blocks) == len(letters)+1``
    and block ``k`` holds the set of operations performed between
    letters ``k`` and ``k+1``.  Two valid ref-words denote the same
    (document, tuple) pair iff they have identical decompositions; this
    is the canonical form behind the containment procedure of
    Theorem 4.1.
    """
    blocks: List[FrozenSet[VarOp]] = []
    letters: List[Symbol] = []
    current: List[VarOp] = []
    for symbol in refword:
        if isinstance(symbol, VarOp):
            current.append(symbol)
        else:
            blocks.append(frozenset(current))
            current = []
            letters.append(symbol)
    blocks.append(frozenset(current))
    return tuple(blocks), tuple(letters)
