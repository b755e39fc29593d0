"""Extractors and certification helpers shared by the benchmarks.

Each workload pairs a *fast executable extractor* (Python ``re`` based,
what a production system would run) with a *miniature VSet-automaton
specification* over a reduced alphabet.  The framework's decision
procedures certify split-correctness on the specification; execution
and timing happen on the fast path.  ``benchmarks/test_workloads.py``
(collected by tier-1) holds every extractor here to the premise the
timings rest on: split by sentences, it returns exactly what it
returns on the whole document.
"""

from __future__ import annotations

import re
from typing import Callable, List, Set

from repro.core.spans import Span, SpanTuple
from repro.runtime.fast import FastSentenceSplitter, FastSeparatorSplitter


class TokenNgramExtractor:
    """Extract all token N-grams within a sentence, with a tunable
    per-window cost.

    A window that runs past a sentence end (a ``.`` before its last
    character) is not an N-gram: evaluated whole or sentence by
    sentence, the extractor returns the same windows.  ``work``
    emulates the per-window feature computation of a real IE function
    (the paper's N-gram pipelines feed windows into feature
    extraction); each window is hashed ``work`` times.
    """

    def __init__(self, n: int, work: int = 8) -> None:
        self.n = n
        self.work = work
        self._tokens = FastSeparatorSplitter(" ")

    def evaluate(self, document: str) -> Set[SpanTuple]:
        tokens = self._tokens.splits(document)
        results = set()
        for i in range(len(tokens) - self.n + 1):
            span = Span(tokens[i].begin, tokens[i + self.n - 1].end)
            window = span.extract(document)
            if "." in window[:-1]:
                continue
            digest = 0
            for k in range(self.work):
                # hash a fresh object every round: real per-feature cost
                # (str.__hash__ alone is cached by the interpreter).
                digest ^= hash((window, k, digest))
            results.add(SpanTuple({"x": span}))
        return results


def _per_token_tagging(document: str, work: int) -> int:
    """Emulate the per-token cost of an NLP pipeline (POS/NER tagging).

    Real relation and sentiment extractors spend their time tagging
    every token before matching patterns; the cost is proportional to
    the token count, which makes it invariant under sentence splitting.
    """
    digest = 0
    for token in document.split():
        for k in range(work):
            digest ^= hash((token, k, digest))
    return digest


class EventExtractor:
    """Financial-transaction events: ``Org pays Org`` inside a sentence.

    ``work`` controls the per-token tagging cost emulating the real
    relation extractor the paper ran on Reuters.
    """

    PATTERN = re.compile(r"(?P<src>[A-Z][a-z]+) pays (?P<dst>[A-Z][a-z]+)")

    def __init__(self, work: int = 6) -> None:
        self.work = work

    def evaluate(self, document: str) -> Set[SpanTuple]:
        _per_token_tagging(document, self.work)
        results = set()
        for match in self.PATTERN.finditer(document):
            results.add(SpanTuple({
                "src": Span(match.start("src") + 1, match.end("src") + 1),
                "dst": Span(match.start("dst") + 1, match.end("dst") + 1),
            }))
        return results


class SentimentTargetExtractor:
    """Targets of negative sentiment: ``the X is bad|awful|terrible``."""

    PATTERN = re.compile(
        r"the (?P<target>[a-z]+) is (?:bad|awful|terrible)"
    )

    def __init__(self, work: int = 6) -> None:
        self.work = work

    def evaluate(self, document: str) -> Set[SpanTuple]:
        _per_token_tagging(document, self.work)
        results = set()
        for match in self.PATTERN.finditer(document):
            results.add(SpanTuple({
                "target": Span(match.start("target") + 1,
                               match.end("target") + 1),
            }))
        return results


def certify_sentence_local_extractor() -> bool:
    """Certify the benchmark premise on a miniature specification.

    The fast extractors above are sentence-local by construction (the
    corpus generators never emit cross-sentence events).  The
    certification builds the miniature analogue — an extractor of
    delimiter-bounded ``a``-runs — and runs the *actual* decision
    procedure for self-splittability by the sentence splitter over the
    filtered (well-formed) documents.
    """
    from repro.automata.regex import regex_to_nfa
    from repro.core.filters import self_splittable_with_filter
    from repro.spanners.algebra import restrict_to_language
    from repro.spanners.regex_formulas import compile_regex_formula
    from repro.splitters.builders import sentence_splitter

    alphabet = frozenset("ab .")
    extractor = compile_regex_formula(
        ".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*|.*(\\.| )y{a+}|y{a+}",
        alphabet,
    )
    well_formed = regex_to_nfa("((a|b)(a|b| )*)?\\.", alphabet)
    checked = restrict_to_language(extractor, well_formed)
    return self_splittable_with_filter(checked, sentence_splitter(alphabet))


def sentence_splitter_fast() -> FastSentenceSplitter:
    return FastSentenceSplitter()
