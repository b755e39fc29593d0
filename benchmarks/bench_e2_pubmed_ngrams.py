"""E2 — PubMed N-gram extraction (Introduction).

Paper claim: the same split-then-distribute method on 279 MB of PubMed
sentences gave a 1.9x speedup.

Reproduction: abstract-shaped corpus (shorter documents, milder skew
than the Wikipedia stand-in), bigram extraction, 5 simulated workers
fed with measured task costs.  Expected shape: speedup > 1 but below
the heavily skewed E1 trigram number.
"""

import pytest

from benchmarks.conftest import report
from benchmarks.corpora import skewed_prose_corpus
from benchmarks.simulation import simulate_corpus_speedup
from benchmarks.workloads import TokenNgramExtractor, sentence_splitter_fast

WORKERS = 5
# Abstract-shaped: more, shorter documents; a moderate head.
CORPUS = skewed_prose_corpus(
    n_documents=60, total_sentences=1200, seed=23,
    head_fraction=0.4, head_documents=2,
)


@pytest.mark.benchmark(group="e2-pubmed")
def test_e2_pubmed_bigrams(benchmark):
    extractor = TokenNgramExtractor(2, work=60)
    result = benchmark.pedantic(
        lambda: simulate_corpus_speedup(
            extractor, CORPUS, sentence_splitter_fast(), workers=WORKERS,
            repeats=2, chunksize=8,
        ),
        rounds=1, iterations=1,
    )
    report("E2", "1.9x (5 cores, 279 MB PubMed)",
           f"{result.speedup:.2f}x (5 simulated workers, synthetic)",
           metrics={
               "workload": "PubMed-shaped n-gram extraction",
               "speedup": result.speedup,
               "baseline_seconds": result.baseline_makespan,
               "split_seconds": result.split_makespan,
           })
    assert result.speedup > 1.2
