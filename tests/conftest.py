"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import io
import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, settings

from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Literal,
    Star,
    Union_,
)
from repro.obs import configure_event_log, event_log
from repro.spanners.regex_formulas import Capture

# Property tests run exhaustive bounded-domain checks inside; keep the
# example counts modest so the suite stays fast.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large,
                           HealthCheck.filter_too_much],
)
settings.load_profile("repro")

ALPHABET = "ab"


@st.composite
def spans_st(draw, max_position: int = 8):
    from repro.core.spans import Span

    begin = draw(st.integers(min_value=1, max_value=max_position))
    end = draw(st.integers(min_value=begin, max_value=max_position))
    return Span(begin, end)


@st.composite
def documents_st(draw, alphabet: str = ALPHABET, max_length: int = 6):
    return draw(st.text(alphabet=alphabet, max_size=max_length))


def _language_node(draw, depth: int):
    """A variable-free regex AST."""
    if depth <= 0:
        return draw(st.sampled_from(
            [Literal("a"), Literal("b"), AnySymbol(), Epsilon()]
        ))
    kind = draw(st.sampled_from(["atom", "concat", "union", "star"]))
    if kind == "atom":
        return _language_node(draw, 0)
    if kind == "concat":
        return Concat(_language_node(draw, depth - 1),
                      _language_node(draw, depth - 1))
    if kind == "union":
        return Union_(_language_node(draw, depth - 1),
                      _language_node(draw, depth - 1))
    return Star(_language_node(draw, depth - 1))


def _formula_node(draw, depth: int, available):
    """A regex-formula AST that is functional by construction.

    Every branch of a union uses the same variable set; concatenations
    split the available variables; star bodies are variable-free.
    """
    if not available:
        return _language_node(draw, depth)
    if depth <= 0:
        # Must still consume all available variables.
        node = None
        for variable in sorted(available):
            wrapped = Capture(variable, _language_node(draw, 0))
            node = wrapped if node is None else Concat(node, wrapped)
        return node
    kind = draw(st.sampled_from(["capture", "concat", "union", "pad"]))
    if kind == "capture":
        variable = sorted(available)[0]
        rest = available - {variable}
        inner = _formula_node(draw, depth - 1, rest)
        return Capture(variable, inner)
    if kind == "concat":
        left_vars = {
            v for v in available if draw(st.booleans())
        }
        left = _formula_node(draw, depth - 1, frozenset(left_vars))
        right = _formula_node(draw, depth - 1,
                              frozenset(available - left_vars))
        return Concat(left, right)
    if kind == "union":
        return Union_(_formula_node(draw, depth - 1, available),
                      _formula_node(draw, depth - 1, available))
    # pad: language context around the variables.
    return Concat(_language_node(draw, depth - 1),
                  _formula_node(draw, depth - 1, available))


@st.composite
def language_nodes_st(draw, max_depth: int = 3):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    return _language_node(draw, depth)


@st.composite
def formula_nodes_st(draw, max_depth: int = 3, max_vars: int = 2):
    variables = frozenset(
        ["x", "y"][: draw(st.integers(min_value=0, max_value=max_vars))]
    )
    depth = draw(st.integers(min_value=1, max_value=max_depth))
    return _formula_node(draw, depth, variables)


@st.composite
def splitter_nodes_st(draw, max_depth: int = 2):
    """A unary formula usable as a splitter."""
    return _formula_node(draw, draw(st.integers(1, max_depth)),
                         frozenset(["x"]))


def _disjoint_splitter(shape, variable):
    """The splitter of ``shape`` capturing its chunks in ``variable``
    (``None``: the Boolean spanner "some chunk exists")."""
    from repro.splitters.builders import (char_class, optional, plus, seq,
                                          up_to)

    def chunk(body):
        return body if variable is None else Capture(variable, body)

    kind, parameter = shape
    anything = Star(AnySymbol())
    if kind == "windows":
        block = seq(*[AnySymbol()] * parameter)
        node = seq(Star(block), chunk(block), Star(block),
                   up_to(AnySymbol(), parameter - 1))
        if parameter > 1:
            short = seq(AnySymbol(), up_to(AnySymbol(), parameter - 2))
            node = Union_(node, Concat(Star(block), chunk(short)))
        return node
    separators = char_class(parameter)
    rest = sorted(set(ALPHABET) - set(parameter))
    after_separator = optional(Concat(anything, separators))
    if kind == "runs" and rest:
        return seq(after_separator, chunk(plus(char_class(rest))),
                   optional(Concat(separators, anything)))
    record = Concat(Star(char_class(rest)) if rest else Epsilon(),
                    separators)
    return seq(after_separator, chunk(record), anything)


def disjoint_splitter_nodes_st(variable="x"):
    """A splitter over ``{a, b}`` that is disjoint by construction:
    maximal runs between separators, records that end in a separator,
    or a tiling into windows of 1 to 3 letters.  Every draw in one
    example has the same shape, so a spanner drawn with another
    ``variable`` (or ``None``) is local to the splitter drawn with
    ``"x"``."""
    shapes = st.one_of(
        st.tuples(st.just("windows"), st.integers(1, 3)),
        st.tuples(st.sampled_from(["runs", "records"]),
                  st.sampled_from(["a", "b", "ab"])),
    )
    return st.shared(shapes, key="disjoint splitter shape").map(
        lambda shape: _disjoint_splitter(shape, variable))


@pytest.fixture
def ab_alphabet():
    return frozenset(ALPHABET)


@pytest.fixture
def captured_events():
    """A StringIO sink attached to the global event log for the test's
    duration; yields a function returning the parsed JSON lines."""
    stream = io.StringIO()
    handler = configure_event_log(stream=stream)

    def lines():
        return [json.loads(line)
                for line in stream.getvalue().splitlines()]

    yield lines
    event_log().detach(handler)
