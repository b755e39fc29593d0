"""Synthetic corpus generators for the benchmark harness.

The paper's Introduction experiments ran on proprietary/offline-
unavailable corpora (a 1.53 GB Wikipedia sentence dump, 279 MB of
PubMed sentences, ~9,000 Reuters articles, ~570,000 Amazon Fine Food
reviews).  These generators produce deterministic synthetic corpora
with the same *shape*: sentence/token structure, heavy-tailed document
lengths (the scheduling-granularity effect the paper credits for its
Spark speedups depends on skew), and configurable densities of the
entities the extractors look for.

All generators are deterministic in ``seed``.
"""

from __future__ import annotations

import random
from typing import List, Sequence

LOWER = "abcdefgh"

ORGS = ["Acme", "Bolt", "Core", "Dyna", "Echo", "Flux", "Gem", "Hive"]
NEGATIVE_ADJECTIVES = ["bad", "awful", "terrible"]
NEUTRAL_ADJECTIVES = ["fine", "fresh", "plain"]


def _token(rng: random.Random, min_len: int = 2, max_len: int = 7) -> str:
    length = rng.randint(min_len, max_len)
    return "".join(rng.choice(LOWER) for _ in range(length))


def _sentence(rng: random.Random, min_tokens: int = 5,
              max_tokens: int = 12) -> str:
    count = rng.randint(min_tokens, max_tokens)
    return " ".join(_token(rng) for _ in range(count)) + "."


def _heavy_tailed_length(rng: random.Random, mean: int) -> int:
    """A skewed sentence count: most documents short, a few very long."""
    if rng.random() < 0.1:
        return max(1, int(rng.expovariate(1.0 / (mean * 5))))
    return max(1, int(rng.expovariate(1.0 / mean)))


def prose_corpus(
    n_documents: int,
    mean_sentences: int,
    seed: int,
    heavy_tail: bool = True,
) -> List[str]:
    """Generic prose: documents of '.'-terminated, space-joined
    sentences (the Wikipedia/PubMed stand-in)."""
    rng = random.Random(seed)
    documents = []
    for _ in range(n_documents):
        count = (_heavy_tailed_length(rng, mean_sentences)
                 if heavy_tail else mean_sentences)
        documents.append(" ".join(_sentence(rng) for _ in range(count)))
    return documents


def skewed_prose_corpus(
    n_documents: int,
    total_sentences: int,
    seed: int,
    head_fraction: float = 0.5,
    head_documents: int = 1,
) -> List[str]:
    """Prose with an explicit heavy head: a few documents carry
    ``head_fraction`` of all sentences.

    This is the document-length skew that makes whole-document
    distribution stall on stragglers — the regime in which the paper's
    split-then-distribute plans win.
    """
    rng = random.Random(seed)
    head_total = int(total_sentences * head_fraction)
    tail_total = total_sentences - head_total
    tail_documents = max(1, n_documents - head_documents)
    counts = []
    for i in range(head_documents):
        counts.append(max(1, head_total // head_documents))
    for i in range(tail_documents):
        counts.append(max(1, tail_total // tail_documents))
    documents = []
    for count in counts:
        documents.append(" ".join(_sentence(rng) for _ in range(count)))
    rng.shuffle(documents)
    return documents


def reuters_like_corpus(
    n_articles: int,
    mean_sentences: int,
    seed: int,
    event_density: float = 0.25,
) -> List[str]:
    """News articles with financial-transaction events.

    A fraction of sentences contains an ``Org pays Org`` event, always
    within a single sentence (the paper's extractor operates on
    sentences).
    """
    rng = random.Random(seed)
    articles = []
    for _ in range(n_articles):
        count = _heavy_tailed_length(rng, mean_sentences)
        sentences = []
        for _ in range(count):
            if rng.random() < event_density:
                src, dst = rng.sample(ORGS, 2)
                filler = _token(rng)
                sentences.append(
                    f"{src} pays {dst} for {filler}."
                )
            else:
                sentences.append(_sentence(rng))
        articles.append(" ".join(sentences))
    return articles


def review_corpus(
    n_reviews: int,
    mean_sentences: int,
    seed: int,
    negative_density: float = 0.3,
) -> List[str]:
    """Product reviews with sentiment sentences (the Amazon stand-in)."""
    rng = random.Random(seed)
    reviews = []
    for _ in range(n_reviews):
        count = _heavy_tailed_length(rng, mean_sentences)
        sentences = []
        for _ in range(count):
            roll = rng.random()
            if roll < negative_density:
                target = _token(rng, 3, 8)
                adjective = rng.choice(NEGATIVE_ADJECTIVES)
                sentences.append(f"the {target} is {adjective}.")
            elif roll < negative_density + 0.2:
                target = _token(rng, 3, 8)
                adjective = rng.choice(NEUTRAL_ADJECTIVES)
                sentences.append(f"the {target} is {adjective}.")
            else:
                sentences.append(_sentence(rng))
        reviews.append(" ".join(sentences))
    return reviews


def corpus_stats(documents: Sequence[str]) -> dict:
    lengths = [len(d) for d in documents]
    return {
        "documents": len(documents),
        "total_chars": sum(lengths),
        "max_chars": max(lengths) if lengths else 0,
        "mean_chars": (sum(lengths) / len(lengths)) if lengths else 0.0,
    }
