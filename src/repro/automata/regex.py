r"""Regular expressions and regex formulas: one grammar, one parser.

The paper builds splitters and spanners from regular languages (e.g.
``S = x{a^n . A_1} + ...`` in Theorem 5.1, the filters of Section 7.2),
and its regex formulas (Section 4.1) are those expressions plus one
form, the capture ``x{alpha}``.  Both are written in one grammar over
single-character symbols::

    alpha ::= !  |  ~  |  sigma  |  .  |  (alpha)  |  alpha|alpha
            |  alpha alpha  |  alpha*  |  alpha+  |  alpha?  |  x{alpha}

* ``!`` is the empty language, ``~`` the empty word, ``.`` any symbol
  of the supplied alphabet; ``+`` and ``?`` are postfix sugar for
  ``alpha alpha*`` and ``(alpha|~)``;
* a literal ``sigma`` is any character except the metacharacters
  ``( ) | * + ? . ~ ! \ { }``; ``\`` before any character makes it
  a literal (write ``\{`` for the letter ``{``);
* ``x{alpha}`` captures what ``alpha`` matches in the variable ``x``,
  the *maximal* identifier run directly before ``{``: ``ax{b}`` is a
  capture named ``ax`` — write ``(a)x{b}`` or ``\ax{b}`` for the
  letter ``a`` followed by ``x{b}``.

A plain regular expression is a formula without captures.  The abstract
syntax tree mirrors the paper's grammar ``a ::= 0 | eps | sigma | (a|a)
| (a.a) | a* | x{a}`` (the capture node is
:class:`repro.spanners.regex_formulas.Capture`); one recursive-descent
parser reads it and one Thompson construction compiles it, both in
:mod:`repro.spanners.regex_formulas`.  :func:`parse_regex` reads the
whole grammar; :func:`regex_to_nfa` compiles the capture-free case:

>>> nfa = regex_to_nfa("a(b|~)*", "ab")
>>> nfa.accepts("abb"), nfa.accepts("ba")
(True, False)
>>> regex_to_nfa(r"\{a\}", "a{}").accepts("{a}")
True
>>> parse_regex("a{")
Traceback (most recent call last):
    ...
repro.automata.regex.RegexParseError: unterminated capture group
>>> regex_to_nfa("x{a}", "ab")
Traceback (most recent call last):
    ...
ValueError: a plain regex has no captures: 'x{a}'
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Hashable, Iterable, Union

from repro.automata.nfa import NFA

Symbol = Hashable

METACHARACTERS = set("()|*+?.~!\\{}")
#: The characters of a capture's variable name; the first is no digit.
NAME_START = frozenset(string.ascii_letters + "_")
NAME_CHARS = NAME_START | frozenset(string.digits)
_NAME_RUN = "".join(sorted(NAME_CHARS))


class RegexNode:
    """Base class for regular-expression AST nodes."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.to_string()

    def to_string(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, repr=False)
class Empty(RegexNode):
    """The empty language (``!`` in the surface syntax)."""

    def to_string(self) -> str:
        return "!"


@dataclass(frozen=True, repr=False)
class Epsilon(RegexNode):
    """The empty word (``~`` in the surface syntax)."""

    def to_string(self) -> str:
        return "~"


@dataclass(frozen=True, repr=False)
class Literal(RegexNode):
    symbol: Symbol

    def to_string(self) -> str:
        text = str(self.symbol)
        if text in METACHARACTERS:
            return "\\" + text
        return text


@dataclass(frozen=True, repr=False)
class AnySymbol(RegexNode):
    """Matches any single symbol of the alphabet (``.``)."""

    def to_string(self) -> str:
        return "."


@dataclass(frozen=True, repr=False)
class Union_(RegexNode):
    left: RegexNode
    right: RegexNode

    def to_string(self) -> str:
        return f"({self.left.to_string()}|{self.right.to_string()})"


@dataclass(frozen=True, repr=False)
class Concat(RegexNode):
    left: RegexNode
    right: RegexNode

    def to_string(self) -> str:
        left, right = self.left.to_string(), self.right.to_string()
        name = len(right) - len(right.lstrip(_NAME_RUN))
        if name and right[name:name + 1] == "{" and left[-1:] in NAME_CHARS:
            # ``a`` then ``x{b}`` must not print as the capture ``ax{b}``.
            right = f"({right})"
        return left + right


@dataclass(frozen=True, repr=False)
class Star(RegexNode):
    inner: RegexNode

    def to_string(self) -> str:
        return f"({self.inner.to_string()})*"


class RegexParseError(ValueError):
    """Raised on malformed regular expressions."""


def parse_regex(pattern: str) -> RegexNode:
    """Parse ``pattern`` into a :class:`RegexNode` tree: the one
    parser of the grammar above, so a capture parses too."""
    from repro.spanners.regex_formulas import parse_regex_formula

    return parse_regex_formula(pattern)


def regex_to_nfa(pattern: Union[str, RegexNode], alphabet: Iterable[Symbol]) -> NFA:
    """Compile the capture-free ``pattern`` (text or AST) to an NFA over
    ``alphabet``: the NFA of its regex-formula automaton.  A capture
    raises :class:`ValueError`."""
    from repro.spanners.regex_formulas import compile_regex_formula

    automaton = compile_regex_formula(pattern, alphabet,
                                      require_functional=False)
    if automaton.variables:
        raise ValueError(
            f"a plain regex has no captures: {automaton.formula.to_string()!r}"
        )
    return automaton.nfa
