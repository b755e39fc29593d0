"""A library of the splitters the paper's Introduction catalogues.

Tokenizers, sentence and paragraph splitters, N-gram extractors,
fixed-width windows, and machine-log record splitters, all constructed
as VSet-automata (via regex-formula ASTs built programmatically) so
that every decision procedure of the framework applies to them.

Text conventions for the synthetic corpora:

* tokens are maximal runs of non-space characters, separated by single
  spaces;
* a sentence is a non-empty run of non-period characters starting with
  a non-space and terminated by ``.``; sentences are joined by a
  single space;
* paragraphs are separated by the newline character;
* log records are separated by ``#`` (standing in for the blank line
  of an HTTP log).
"""

from __future__ import annotations

import re as _re
from functools import reduce
from typing import Callable, Dict, Hashable, Iterable

from repro.errors import UnknownSplitterError

from repro.automata.regex import (
    Concat,
    Epsilon,
    Literal,
    RegexNode,
    Star,
    Union_,
)
from repro.runtime import fast
from repro.spanners.regex_formulas import Capture, compile_regex_formula
from repro.spanners.vset_automaton import VSetAutomaton

Symbol = Hashable

#: Default variable name used by the built splitters.
SPLIT_VAR = "x"


# ----------------------------------------------------------------------
# AST-building helpers
# ----------------------------------------------------------------------

def char_class(chars: Iterable[str]) -> RegexNode:
    """Alternation over a set of characters."""
    nodes = [Literal(c) for c in sorted(set(chars))]
    if not nodes:
        raise ValueError("empty character class")
    return reduce(Union_, nodes)


def seq(*nodes: RegexNode) -> RegexNode:
    """Concatenation of several nodes."""
    if not nodes:
        return Epsilon()
    return reduce(Concat, nodes)


def power(node: RegexNode, count: int) -> RegexNode:
    """``node`` repeated exactly ``count`` times."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return Epsilon()
    return seq(*([node] * count))


def plus(node: RegexNode) -> RegexNode:
    return Concat(node, Star(node))


def optional(node: RegexNode) -> RegexNode:
    return Union_(node, Epsilon())


def up_to(node: RegexNode, count: int) -> RegexNode:
    """``node`` repeated between 0 and ``count`` times."""
    result: RegexNode = Epsilon()
    for _ in range(count):
        result = optional(Concat(node, result))
    return result


# ----------------------------------------------------------------------
# Splitters
# ----------------------------------------------------------------------

def whole_document_splitter(
    alphabet: Iterable[str], variable=SPLIT_VAR
) -> VSetAutomaton:
    """``x{Sigma*}``: the trivial splitter selecting the whole document."""
    alphabet = frozenset(alphabet)
    body = Star(char_class(alphabet)) if alphabet else Epsilon()
    return compile_regex_formula(Capture(variable, body), alphabet)


def separator_splitter(
    alphabet: Iterable[str], separators, variable=SPLIT_VAR
) -> VSetAutomaton:
    """Maximal separator-free chunks (tokenizer / paragraph / record).

    A chunk is a non-empty run of non-separator characters delimited by
    a separator (one character of ``separators``) or the document
    boundary; this covers the paper's tokenization (separator space),
    paragraph segmentation (newline), and machine-log itemization
    (record separator) splitters, and is disjoint by construction.
    """
    alphabet = frozenset(alphabet)
    separators = frozenset(separators)
    if not separators <= alphabet:
        raise ValueError("separators must be in the alphabet")
    rest = alphabet - separators
    if not rest:
        raise ValueError("alphabet must contain non-separator characters")
    any_char = char_class(alphabet)
    sep = char_class(separators)
    chunk = plus(char_class(rest))
    prefix = optional(seq(Star(any_char), sep))
    suffix = optional(seq(sep, Star(any_char)))
    formula = seq(prefix, Capture(variable, chunk), suffix)
    return compile_regex_formula(formula, alphabet)


def token_splitter(
    alphabet: Iterable[str], separators=None, variable=SPLIT_VAR
) -> VSetAutomaton:
    """Tokenization: maximal runs of non-separator characters.

    ``separators`` defaults to the whitespace characters present in
    the alphabet (space and newline).
    """
    alphabet = frozenset(alphabet)
    if separators is None:
        separators = alphabet & frozenset(" \n")
    return separator_splitter(alphabet, separators, variable)


def paragraph_splitter(
    alphabet: Iterable[str], variable=SPLIT_VAR
) -> VSetAutomaton:
    """Paragraph segmentation: chunks separated by newlines."""
    return separator_splitter(alphabet, "\n", variable)


def record_splitter(
    alphabet: Iterable[str], separator: str = "#", variable=SPLIT_VAR
) -> VSetAutomaton:
    """Machine-log itemization (e.g. HTTP messages between blank lines)."""
    return separator_splitter(alphabet, separator, variable)


def sentence_splitter(
    alphabet: Iterable[str], variable=SPLIT_VAR
) -> VSetAutomaton:
    """Sentence boundary detection for the corpus conventions above.

    A sentence starts with a non-space, non-period character, may
    contain anything but periods, and ends at its terminating period.
    """
    alphabet = frozenset(alphabet)
    if "." not in alphabet:
        raise ValueError("sentence alphabet must contain '.'")
    not_dot = alphabet - {"."}
    start_chars = not_dot - {" "}
    if not start_chars:
        raise ValueError("alphabet must contain sentence-start characters")
    any_char = char_class(alphabet)
    sentence = seq(char_class(start_chars),
                   Star(char_class(not_dot)) if not_dot else Epsilon(),
                   Literal("."))
    # Before a sentence: the document start or the previous period,
    # then any amount of padding space.
    prefix = seq(optional(seq(Star(any_char), Literal("."))),
                 Star(Literal(" ")))
    suffix = Star(any_char)
    formula = seq(prefix, Capture(variable, sentence), suffix)
    return compile_regex_formula(formula, alphabet)


def char_ngram_splitter(
    alphabet: Iterable[str], n: int, variable=SPLIT_VAR,
    include_short_documents: bool = False,
) -> VSetAutomaton:
    """Character N-grams: every window of exactly ``n`` letters.

    Non-disjoint for ``n > 1`` (Section 3), which the disjointness
    decision procedure confirms.  With ``include_short_documents=True``
    a document shorter than ``n`` yields itself as its only window —
    the convention under which the paper's "self-splittable for
    N >= 5" claims hold on arbitrary-length documents.
    """
    alphabet = frozenset(alphabet)
    if n < 1:
        raise ValueError("n must be positive")
    any_char = char_class(alphabet)
    formula: RegexNode = seq(Star(any_char),
                             Capture(variable, power(any_char, n)),
                             Star(any_char))
    if include_short_documents and n > 1:
        short = Capture(variable, up_to(any_char, n - 1))
        formula = Union_(formula, short)
    return compile_regex_formula(formula, alphabet)


def token_ngram_splitter(
    alphabet: Iterable[str], n: int, variable=SPLIT_VAR
) -> VSetAutomaton:
    """Token N-grams: windows of ``n`` consecutive space-separated tokens.

    The captured span includes the inner separating spaces, mirroring
    the local-context windows of the Introduction; non-disjoint for
    ``n > 1``.
    """
    alphabet = frozenset(alphabet)
    if " " not in alphabet:
        raise ValueError("token alphabet must contain the space separator")
    if n < 1:
        raise ValueError("n must be positive")
    word = plus(char_class(alphabet - {" "}))
    gap = plus(Literal(" "))
    window = seq(word, power(seq(gap, word), n - 1))
    any_char = char_class(alphabet)
    prefix = optional(seq(Star(any_char), Literal(" ")))
    suffix = optional(seq(Literal(" "), Star(any_char)))
    formula = seq(prefix, Capture(variable, window), suffix)
    return compile_regex_formula(formula, alphabet)


def fixed_window_splitter(
    alphabet: Iterable[str], width: int, variable=SPLIT_VAR
) -> VSetAutomaton:
    """Disjoint fixed-width tiling: blocks of ``width`` characters.

    The document is cut into consecutive blocks of exactly ``width``
    characters with a shorter final block; useful as a disjoint
    stand-in for windowed processing.
    """
    alphabet = frozenset(alphabet)
    if width < 1:
        raise ValueError("width must be positive")
    any_char = char_class(alphabet)
    block = power(any_char, width)
    short_tail = up_to(any_char, width - 1)
    full = seq(Star(block), Capture(variable, block), Star(block), short_tail)
    tail = seq(Star(block),
               Capture(variable, seq(any_char, up_to(any_char, width - 2))))
    formula = Union_(full, tail)
    return compile_regex_formula(formula, alphabet)


# ----------------------------------------------------------------------
# The name -> (specification, executor) registry
# ----------------------------------------------------------------------

#: Plain names: each maps to ``(builder(alphabet) -> VSetAutomaton,
#: scanner(alphabet) -> FastSplitter)`` — the scanner is given exactly
#: the separators the builder gives the automaton.
_NAMED_BUILDERS: Dict[str, tuple] = {
    "tokens": (token_splitter, lambda alphabet:
               fast.FastSeparatorSplitter(alphabet & frozenset(" \n"))),
    "sentences": (sentence_splitter,
                  lambda alphabet: fast.FastSentenceSplitter()),
    "paragraphs": (paragraph_splitter,
                   lambda alphabet: fast.FastSeparatorSplitter("\n")),
    "records": (record_splitter,
                lambda alphabet: fast.FastSeparatorSplitter("#")),
    "whole": (whole_document_splitter,
              lambda alphabet: fast.FastWholeSplitter()),
}

#: Parametric families ``<family><N>`` (e.g. ``ngram3``, ``window8``):
#: each maps to ``(builder(alphabet, n), scanner(n), default n)``.
_PARAMETRIC_BUILDERS: Dict[str, tuple] = {
    "ngram": (token_ngram_splitter, fast.FastTokenNgramSplitter, 2),
    "window": (fixed_window_splitter, fast.FastFixedWindowSplitter, 8),
}

_PARAMETRIC_NAME = _re.compile(r"^([a-z]+?)(\d*)$")


def registry() -> Dict[str, Callable]:
    """The name -> builder mapping of the plain (non-parametric) names.

    Every builder takes the document alphabet and returns the
    splitter's VSet-automaton.  Parametric families (``ngram<N>``,
    ``window<N>``) are resolved by :func:`build_named`; their family
    names are listed by :func:`known_splitter_names`.
    """
    return {name: builder for name, (builder, _scanner)
            in _NAMED_BUILDERS.items()}


def known_splitter_names() -> list:
    """Every name :func:`build_named` accepts, parametric families as
    ``family<N>`` templates (the CLI help and error-message list)."""
    return sorted(_NAMED_BUILDERS) + sorted(
        f"{family}<N>" for family in _PARAMETRIC_BUILDERS
    )


def _resolve(name: str):
    """``(builder(alphabet, variable=), scanner(alphabet))`` for
    ``name``, a parametric family's parameter already applied."""
    if name in _NAMED_BUILDERS:
        return _NAMED_BUILDERS[name]
    match = _PARAMETRIC_NAME.match(name)
    if match is not None and match.group(1) in _PARAMETRIC_BUILDERS:
        builder, scanner, default = _PARAMETRIC_BUILDERS[match.group(1)]
        parameter = int(match.group(2)) if match.group(2) else default
        return (
            lambda alphabet, variable: builder(alphabet, parameter,
                                               variable=variable),
            lambda alphabet: scanner(parameter),
        )
    raise UnknownSplitterError(name, known_splitter_names())


def build_named(name: str, alphabet: Iterable[str],
                variable=SPLIT_VAR) -> VSetAutomaton:
    """Build the splitter called ``name`` over ``alphabet``.

    The single dispatch point shared by the CLI and the fluent
    :meth:`repro.query.Splitter.named`: plain names come from
    :func:`registry`; ``ngram<N>`` and ``window<N>`` parse their
    integer parameter (defaulting to 2 resp. 8 when omitted).  Raises
    :class:`repro.errors.UnknownSplitterError` (carrying the
    known-names list) for anything else.
    """
    builder, _scanner = _resolve(name)
    return builder(alphabet, variable=variable)


def executor_named(name: str, alphabet: Iterable[str]):
    """The compiled scanner that executes the splitter called ``name``
    over ``alphabet`` (a :class:`repro.runtime.fast.FastSplitter`).

    Paired with :func:`build_named` in this one registry, so a name's
    scanner and its specification automaton select the same spans of
    every document over ``alphabet`` — and, the scanner being bound to
    that alphabet, reject the same documents with :class:`ValueError`.
    """
    alphabet = frozenset(alphabet)
    _builder, scanner = _resolve(name)
    return scanner(alphabet).over(alphabet)


def consecutive_sentence_pairs(
    alphabet: Iterable[str], variable=SPLIT_VAR
) -> VSetAutomaton:
    """Windows of two consecutive sentences (non-disjoint).

    The paper's example of coreference resolvers bounded to sentence
    windows (Stanford's sieve uses three); two keeps the automaton
    small while exhibiting the same non-disjointness.
    """
    alphabet = frozenset(alphabet)
    if "." not in alphabet:
        raise ValueError("sentence alphabet must contain '.'")
    not_dot = alphabet - {"."}
    start_chars = not_dot - {" "}
    any_char = char_class(alphabet)
    sentence = seq(char_class(start_chars),
                   Star(char_class(not_dot)),
                   Literal("."))
    window = seq(sentence, Literal(" "), sentence)
    prefix = optional(seq(Star(any_char), Literal("."), Literal(" ")))
    suffix = optional(seq(optional(Literal(" ")), Star(any_char)))
    formula = seq(prefix, Capture(variable, window), suffix)
    return compile_regex_formula(formula, alphabet)
