"""Corpus index subsystem: match first where matching is cheap.

Split-correctness makes chunks independent units of work; this package
makes most of them *free*: it derives, per certified plan, the literal
material every matching chunk must contain
(:mod:`repro.index.factors`), maintains a trigram posting index over a
corpus's distinct chunk texts (:mod:`repro.index.store` — one
:class:`SegmentedIndex`, resident in memory or persisted in a
directory), and gates the engine's chunk loop with an
:class:`IndexFilter` (:mod:`repro.index.filter`) that skips chunks
which provably produce no tuples — before any automaton runs.

The production pattern (the Google Code Search recipe, applied to
split-correct plans)::

    from repro import Q, SegmentedIndex, Spanner, Splitter
    from repro.engine import Corpus

    corpus = Corpus.from_texts(texts)
    sentences = Splitter.named("sentences", alphabet)
    SegmentedIndex.build(corpus, sentences, "corpus.segs")  # once
    # (no directory: the same index, built in memory)

    spanner = Spanner.regex(".*x{qz+}.*", alphabet)
    results = (Q(spanner).split_by(sentences)
               .indexed("corpus.segs").over(corpus))     # many times
    results.explain()["index"]          # factors, mode, pruning stats
    results.stats().chunks_pruned       # chunks never evaluated

Everything is sound by construction: pruning decisions are necessary
conditions verified against the plan's matching NFA, so indexed and
unindexed runs produce identical span results — a spanner with no
extractable factors simply falls back to full evaluation.
"""

from repro.index.factors import FactorSet, factors_of
from repro.index.filter import IndexFilter
from repro.index.store import SegmentedIndex

__all__ = [
    "FactorSet",
    "IndexFilter",
    "SegmentedIndex",
    "factors_of",
]
