"""Seeded input generators for the performance ledger.

Self-contained: nothing here imports ``benchmarks/corpora.py`` (or the
program under test).  Every generator takes a ``random.Random`` and
returns, next to the texts, the **planted matches** — the exact
``(begin, end)`` spans (1-based, end-exclusive, the program's own span
convention) the extraction pattern must find in each document.  The
harness checks every output against them and cross-checks a sample of
them against ``evaluate_whole``, so a wrong generator and a wrong
program cannot agree by accident.

Two document shapes cover the six workloads:

* **sentence documents** over ``abcdefgh qz.`` — ``. ``-joined
  sentences of random ``abcdefgh`` tokens, a configurable share of
  which carry one planted ``qz+`` token.  Every sentence is freshly
  drawn, so (with overwhelming probability) no chunk repeats and the
  chunk cache cannot help.  The hit rate sets how selective the
  ``qz``-run pattern is (50 % dense, 5 % selective).
* **boilerplate documents** over ``abcdefgh .`` — documents assembled
  from a small pool of sentences over a small pool of tokens, a third
  of them ``a``-runs.  Chunks (tokens) repeat hundreds of thousands of
  times; nearly every chunk is a cache hit.  Unlike
  ``benchmarks.corpora.boilerplate_corpus`` the alphabet the pattern is
  compiled over is the alphabet the tokens are drawn from, so no
  document can raise ``document symbol not in alphabet``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

LETTERS = "abcdefgh"

#: Alphabet and pattern of the sentence workloads: delimiter-bounded
#: ``qz``-runs (E7's shape).  Only planted tokens contain ``q``/``z``.
QZ_ALPHABET = "abcdefgh qz."
QZ_PATTERN = (".*(\\.| )y{qz+}(\\.| ).*|y{qz+}(\\.| ).*"
              "|.*(\\.| )y{qz+}|y{qz+}")

#: Alphabet and pattern of the boilerplate workload: delimiter-bounded
#: ``a``-runs (E5's shape) over the alphabet the tokens really use.
A_ALPHABET = "abcdefgh ."
A_PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
             "|.*(\\.| )y{a+}|y{a+}")

SpanPair = Tuple[int, int]


def _token(rng: random.Random) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(2, 7)))


@dataclass
class Sentence:
    """One sentence (no terminator) and its planted spans, positioned
    0-based within the sentence text."""

    text: str
    planted: List[SpanPair]


def fresh_sentence(rng: random.Random, hit_rate: float) -> Sentence:
    """6-12 random tokens; with probability ``hit_rate`` one of them is
    replaced by a ``qz+`` token (the only thing the pattern matches)."""
    words = [_token(rng) for _ in range(rng.randint(6, 12))]
    hit = rng.random() < hit_rate
    if hit:
        words[rng.randrange(len(words))] = "q" + "z" * rng.randint(1, 3)
    planted: List[SpanPair] = []
    offset = 0
    for word in words:
        if word[0] == "q":
            planted.append((offset, offset + len(word)))
        offset += len(word) + 1
    return Sentence(" ".join(words), planted)


class SentenceDocument:
    """A document kept as its sentences, so one can be rewritten."""

    def __init__(self, sentences: List[Sentence]) -> None:
        self.sentences = sentences

    @property
    def text(self) -> str:
        return ". ".join(s.text for s in self.sentences) + "."

    @property
    def planted(self) -> List[SpanPair]:
        """Planted spans as the program reports them (1-based)."""
        spans: List[SpanPair] = []
        offset = 1
        for sentence in self.sentences:
            spans.extend((offset + begin, offset + end)
                         for begin, end in sentence.planted)
            offset += len(sentence.text) + 2
        return spans


def sentence_documents(
    rng: random.Random, n_documents: int, sentences: int, hit_rate: float
) -> List[SentenceDocument]:
    return [
        SentenceDocument([fresh_sentence(rng, hit_rate)
                          for _ in range(sentences)])
        for _ in range(n_documents)
    ]


#: The boilerplate corpus draws from this many distinct sentences over
#: this many distinct tokens.
DISTINCT_SENTENCES = 200
TOKEN_POOL = 24


def boilerplate_documents(
    rng: random.Random, n_documents: int, sentences: int
) -> Tuple[List[str], List[List[SpanPair]]]:
    """Texts and planted ``a``-run spans of a boilerplate corpus.

    The *shape* is fixed and only the letters are drawn: exactly a
    third of the pool's tokens are ``a``-runs, and token and sentence
    lengths cycle through their ranges.  Chunks per byte and tuples
    per byte — what a pass costs — then hardly depend on the seed, so
    runs on different seeds measure the same work.
    """
    tokens = [
        "a" * (1 + position % 4) if position % 3 == 0
        else "".join(rng.choice(LETTERS) for _ in range(2 + position % 6))
        for position in range(TOKEN_POOL)
    ]
    pool: List[Sentence] = []
    for position in range(DISTINCT_SENTENCES):
        words = [rng.choice(tokens) for _ in range(5 + position % 8)]
        planted: List[SpanPair] = []
        offset = 0
        for word in words:
            if set(word) == {"a"}:
                planted.append((offset, offset + len(word)))
            offset += len(word) + 1
        pool.append(Sentence(" ".join(words) + ".", planted))
    texts: List[str] = []
    all_planted: List[List[SpanPair]] = []
    for _ in range(n_documents):
        parts: List[str] = []
        planted = []
        offset = 1
        for _ in range(sentences):
            sentence = rng.choice(pool)
            parts.append(sentence.text)
            planted.extend((offset + begin, offset + end)
                           for begin, end in sentence.planted)
            offset += len(sentence.text) + 1
        texts.append(" ".join(parts))
        all_planted.append(planted)
    return texts, all_planted


@dataclass
class Request:
    """One ``POST /extract`` payload and what it must return."""

    texts: List[str]
    planted: List[List[SpanPair]]


#: The request mix of ``serve-http``: documents per request, the share
#: drawn from the hot pool, and the shape of every document (hot or
#: never seen before).
DOCUMENTS_PER_REQUEST = 8
HOT_SHARE = 0.75
REQUEST_SENTENCES = 12
REQUEST_HIT_RATE = 0.5


def request_mix(
    rng: random.Random, n_requests: int,
    hot_pool: Sequence[SentenceDocument],
) -> List[Request]:
    """Requests drawing ``HOT_SHARE`` of their documents from
    ``hot_pool`` and the rest never seen before."""
    hot = [(doc.text, doc.planted) for doc in hot_pool]
    requests = []
    for _ in range(n_requests):
        texts, planted = [], []
        for _ in range(DOCUMENTS_PER_REQUEST):
            if rng.random() < HOT_SHARE:
                text, spans = rng.choice(hot)
            else:
                doc = SentenceDocument([
                    fresh_sentence(rng, REQUEST_HIT_RATE)
                    for _ in range(REQUEST_SENTENCES)])
                text, spans = doc.text, doc.planted
            texts.append(text)
            planted.append(spans)
        requests.append(Request(texts, planted))
    return requests


def edit_round(
    rng: random.Random,
    documents: Sequence[SentenceDocument],
    share: float,
    hit_rate: float,
) -> Dict[int, SentenceDocument]:
    """Rewrite one sentence in ``share`` of ``documents`` (at least
    one), in place; returns the edited documents by position."""
    count = max(1, round(len(documents) * share))
    edited = {}
    for position in rng.sample(range(len(documents)), count):
        document = documents[position]
        victim = rng.randrange(len(document.sentences))
        document.sentences[victim] = fresh_sentence(rng, hit_rate)
        edited[position] = document
    return edited
