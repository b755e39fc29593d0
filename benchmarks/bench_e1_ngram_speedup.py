"""E1 — Wikipedia N-gram extraction (Introduction).

Paper claim: extracting N-grams from 1.53 GB of Wikipedia sentences,
"first split to sentences and then distribute" improves runtime by
2.1x for N=2 and 3.11x for N=3, over 5 cores.

Reproduction: a heavy-tailed synthetic prose corpus; the baseline
distributes whole documents over a 5-worker pool, the split plan
distributes sentence chunks over the same pool.  Substitutions: the
corpus is synthetic and scaled to laptop size, and — because the
reference box has two cores — the 5 workers are a discrete-event
simulated pool fed with *measured* per-task costs
(:mod:`benchmarks.simulation`).  The claim under test is the shape:
speedup > 1 from finer-grained scheduling, larger for the more
expensive N=3 extractor.  That the split plan returns the baseline's
tuples is gated in tier-1 by ``benchmarks/test_workloads.py``.
"""

import pytest

from benchmarks.conftest import report
from benchmarks.corpora import skewed_prose_corpus
from benchmarks.simulation import simulate_corpus_speedup
from benchmarks.workloads import (
    TokenNgramExtractor,
    certify_sentence_local_extractor,
    sentence_splitter_fast,
)

WORKERS = 5
CORPUS = skewed_prose_corpus(
    n_documents=24, total_sentences=1200, seed=11, head_fraction=0.6
)


def test_certification_premise():
    """The framework certifies the sentence-split plan before timing."""
    assert certify_sentence_local_extractor()


@pytest.mark.benchmark(group="e1-ngrams")
def test_e1_bigrams(benchmark):
    extractor = TokenNgramExtractor(2, work=60)
    result = benchmark.pedantic(
        lambda: simulate_corpus_speedup(
            extractor, CORPUS, sentence_splitter_fast(), workers=WORKERS,
            repeats=2,
        ),
        rounds=1, iterations=1,
    )
    report("E1 N=2", "2.10x (5 cores, 1.53 GB Wikipedia)",
           f"{result.speedup:.2f}x (5 simulated workers, synthetic)",
           metrics={
               "workload": "token bigrams, 24-document skewed prose",
               "speedup": result.speedup,
               "baseline_seconds": result.baseline_makespan,
               "split_seconds": result.split_makespan,
           })
    assert result.speedup > 1.3


@pytest.mark.benchmark(group="e1-ngrams")
def test_e1_trigrams(benchmark):
    extractor = TokenNgramExtractor(3, work=90)
    result = benchmark.pedantic(
        lambda: simulate_corpus_speedup(
            extractor, CORPUS, sentence_splitter_fast(), workers=WORKERS,
            repeats=2,
        ),
        rounds=1, iterations=1,
    )
    report("E1 N=3", "3.11x (5 cores, 1.53 GB Wikipedia)",
           f"{result.speedup:.2f}x (5 simulated workers, synthetic)",
           metrics={
               "workload": "token trigrams, 24-document skewed prose",
               "speedup": result.speedup,
               "baseline_seconds": result.baseline_makespan,
               "split_seconds": result.split_makespan,
           })
    assert result.speedup > 1.5
