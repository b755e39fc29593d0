"""Regex formulas: regular expressions with capture variables (Sec 4.1).

The grammar — plain regular expressions plus the capture ``x{alpha}``,
with braces as metacharacters — is written out once, in
:mod:`repro.automata.regex`.  This module holds its one parser
(:func:`parse_regex_formula`) and its one Thompson construction
(:func:`compile_regex_formula`): ``parse_regex`` is this parser, and
``regex_to_nfa`` compiles the capture-free case through it.

A regex formula is *functional* when every generated ref-word is valid;
following the paper, the class ``RGX`` contains exactly the functional
formulas and :func:`compile_regex_formula` enforces this by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterable, Tuple, Union

from repro.automata.nfa import EPSILON, NFA
from repro.automata.regex import (
    METACHARACTERS,
    NAME_CHARS,
    NAME_START,
    AnySymbol,
    Concat,
    Empty,
    Epsilon,
    Literal,
    RegexNode,
    RegexParseError,
    Star,
    Union_,
)
from repro.spanners.refwords import Close, Open, gamma
from repro.spanners.vset_automaton import VSetAutomaton

Symbol = Hashable
Variable = Hashable


@dataclass(frozen=True, repr=False)
class Capture(RegexNode):
    """The capture form ``x{alpha}``."""

    variable: Variable
    inner: RegexNode

    def to_string(self) -> str:
        return f"{self.variable}{{{self.inner.to_string()}}}"


def svars(node: RegexNode) -> FrozenSet[Variable]:
    """``SVars(alpha)``: the set of capture variables occurring."""
    if isinstance(node, Capture):
        return svars(node.inner) | {node.variable}
    if isinstance(node, (Union_, Concat)):
        return svars(node.left) | svars(node.right)
    if isinstance(node, Star):
        return svars(node.inner)
    return frozenset()


def formula_size(node: RegexNode) -> int:
    """``|alpha|``: number of AST symbols."""
    if isinstance(node, Capture):
        return 1 + formula_size(node.inner)
    if isinstance(node, (Union_, Concat)):
        return 1 + formula_size(node.left) + formula_size(node.right)
    if isinstance(node, Star):
        return 1 + formula_size(node.inner)
    return 1


class _FormulaParser:
    """Recursive-descent parser with capture-variable lookahead."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def advance(self) -> str:
        char = self.text[self.pos]
        self.pos += 1
        return char

    def parse(self) -> RegexNode:
        node = self.parse_union()
        if self.pos != len(self.text):
            raise RegexParseError(
                f"unexpected {self.text[self.pos]!r} at position {self.pos}"
            )
        return node

    def parse_union(self) -> RegexNode:
        node = self.parse_concat()
        while self.peek() == "|":
            self.advance()
            node = Union_(node, self.parse_concat())
        return node

    def parse_concat(self) -> RegexNode:
        parts = []
        while True:
            char = self.peek()
            if char is None or char in ")|}":
                break
            parts.append(self.parse_postfix())
        if not parts:
            return Epsilon()
        node = parts[0]
        for part in parts[1:]:
            node = Concat(node, part)
        return node

    def parse_postfix(self) -> RegexNode:
        node = self.parse_atom()
        while True:
            char = self.peek()
            if char == "*":
                self.advance()
                node = Star(node)
            elif char == "+":
                self.advance()
                node = Concat(node, Star(node))
            elif char == "?":
                self.advance()
                node = Union_(node, Epsilon())
            else:
                return node

    def _try_capture(self):
        """Parse ``ident{...}`` if present, else return ``None``."""
        saved = self.pos
        if self.peek() not in NAME_START:
            return None
        name = [self.advance()]
        while self.peek() in NAME_CHARS:
            name.append(self.advance())
        if self.peek() != "{":
            self.pos = saved
            return None
        self.advance()
        inner = self.parse_union()
        if self.peek() != "}":
            raise RegexParseError("unterminated capture group")
        self.advance()
        return Capture("".join(name), inner)

    def parse_atom(self) -> RegexNode:
        char = self.peek()
        if char is None:
            raise RegexParseError("unexpected end of pattern")
        capture = self._try_capture()
        if capture is not None:
            return capture
        if char == "(":
            self.advance()
            node = self.parse_union()
            if self.peek() != ")":
                raise RegexParseError("unbalanced parenthesis")
            self.advance()
            return node
        if char == "\\":
            self.advance()
            nxt = self.peek()
            if nxt is None:
                raise RegexParseError("dangling escape")
            self.advance()
            return Literal(nxt)
        if char == ".":
            self.advance()
            return AnySymbol()
        if char == "~":
            self.advance()
            return Epsilon()
        if char == "!":
            self.advance()
            return Empty()
        if char in METACHARACTERS:
            raise RegexParseError(f"unexpected metacharacter {char!r}")
        self.advance()
        return Literal(char)


def parse_regex_formula(pattern: str) -> RegexNode:
    """Parse a regex-formula string into its AST."""
    return _FormulaParser(pattern).parse()


def _compile(node: RegexNode, alphabet: FrozenSet[Symbol],
             counter: list) -> Tuple:
    """Thompson's construction: ``(states, initial, finals,
    transitions)`` of ``node`` over the document alphabet, a capture's
    ``Open``/``Close`` operations included.  It is the only one:
    ``regex_to_nfa`` compiles a plain regex through it as well."""

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    if isinstance(node, Capture):
        states, initial, finals, transitions = _compile(
            node.inner, alphabet, counter
        )
        q0, q1 = fresh(), fresh()
        transitions = list(transitions)
        transitions.append((q0, Open(node.variable), initial))
        for final in finals:
            transitions.append((final, Close(node.variable), q1))
        return states | {q0, q1}, q0, {q1}, transitions
    if isinstance(node, Empty):
        q = fresh()
        return {q}, q, set(), []
    if isinstance(node, Epsilon):
        q = fresh()
        return {q}, q, {q}, []
    if isinstance(node, Literal):
        if node.symbol not in alphabet:
            raise ValueError(f"literal {node.symbol!r} not in alphabet")
        q0, q1 = fresh(), fresh()
        return {q0, q1}, q0, {q1}, [(q0, node.symbol, q1)]
    if isinstance(node, AnySymbol):
        q0, q1 = fresh(), fresh()
        return {q0, q1}, q0, {q1}, [(q0, symbol, q1) for symbol in alphabet]
    if isinstance(node, Union_):
        ls, li, lf, lt = _compile(node.left, alphabet, counter)
        rs, ri, rf, rt = _compile(node.right, alphabet, counter)
        q0 = fresh()
        transitions = list(lt) + list(rt)
        transitions += [(q0, EPSILON, li), (q0, EPSILON, ri)]
        return ls | rs | {q0}, q0, lf | rf, transitions
    if isinstance(node, Concat):
        ls, li, lf, lt = _compile(node.left, alphabet, counter)
        rs, ri, rf, rt = _compile(node.right, alphabet, counter)
        transitions = list(lt) + list(rt) + [(f, EPSILON, ri) for f in lf]
        return ls | rs, li, rf, transitions
    if isinstance(node, Star):
        s, i, f, t = _compile(node.inner, alphabet, counter)
        q0 = fresh()
        transitions = list(t) + [(q0, EPSILON, i)]
        transitions += [(x, EPSILON, q0) for x in f]
        return s | {q0}, q0, {q0}, transitions
    raise TypeError(f"unknown node {node!r}")


def compile_regex_formula(
    pattern: Union[str, RegexNode],
    alphabet: Iterable[Symbol],
    require_functional: bool = True,
) -> VSetAutomaton:
    """Compile a regex formula to a VSet-automaton.

    With ``require_functional=True`` (the paper's standing assumption
    for the class RGX) a :class:`ValueError` is raised when some
    generated ref-word is invalid, e.g. for ``(x{a})*``.
    """
    node = parse_regex_formula(pattern) if isinstance(pattern, str) else pattern
    alphabet = frozenset(alphabet)
    variables = svars(node)
    counter = [0]
    states, initial, finals, transitions = _compile(node, alphabet, counter)
    extended = alphabet | gamma(variables)
    nfa = NFA(extended, states, initial, finals, transitions)
    automaton = VSetAutomaton(alphabet, variables, nfa)
    # Remember the source AST: the index subsystem harvests candidate
    # literal factors from it (repro.index.factors); automata built any
    # other way simply analyse their NFA paths instead.
    automaton.formula = node
    if require_functional and not automaton.is_functional():
        from repro.errors import NotFunctionalError

        raise NotFunctionalError(
            f"regex formula {node.to_string()!r} is not functional"
        )
    return automaton


def boolean_spanner(pattern: str, alphabet: Iterable[Symbol]) -> VSetAutomaton:
    """A 0-ary spanner testing membership in a classical regex language."""
    automaton = compile_regex_formula(pattern, alphabet)
    if automaton.variables:
        raise ValueError("boolean spanner must not contain captures")
    return automaton
