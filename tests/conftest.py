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
