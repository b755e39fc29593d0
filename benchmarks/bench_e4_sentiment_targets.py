"""E4 — Amazon Fine Food reviews: negative-sentiment targets.

Paper claim: extracting targets of negative sentiment from ~570,000
reviews, splitting reviews into sentences sped Spark evaluation up by
4.16x with the same parallelism — the largest effect in the paper,
attributed to scheduling over many small tasks.

Reproduction: review-shaped corpus with a strongly skewed length
distribution (a few very long reviews dominate, as in real review
data); sentence-task plan vs whole-review plan on the 5-worker
simulated pool.
"""

import pytest

from benchmarks.conftest import report
from benchmarks.corpora import review_corpus
from benchmarks.simulation import simulate_corpus_speedup
from benchmarks.workloads import SentimentTargetExtractor, sentence_splitter_fast

WORKERS = 5


def _skewed_reviews():
    # Review platforms have extreme length skew; emulate it by mixing
    # many short reviews with a handful of essays.
    short = review_corpus(n_reviews=220, mean_sentences=3, seed=41)
    long = review_corpus(n_reviews=4, mean_sentences=220, seed=43)
    # Long reviews arrive late: the worst case for coarse scheduling.
    return short[:180] + long + short[180:]


CORPUS = _skewed_reviews()


@pytest.mark.benchmark(group="e4-sentiment")
def test_e4_sentiment_targets(benchmark):
    extractor = SentimentTargetExtractor(work=60)
    result = benchmark.pedantic(
        lambda: simulate_corpus_speedup(
            extractor, CORPUS, sentence_splitter_fast(), workers=WORKERS,
            repeats=2, chunksize=8,
        ),
        rounds=1, iterations=1,
    )
    report("E4", "4.16x (5-node Spark, ~570k Amazon reviews)",
           f"{result.speedup:.2f}x (5 simulated workers, "
           f"{result.baseline_tasks} -> {result.split_tasks} tasks)",
           metrics={
               "workload": "review-shaped sentiment-target extraction",
               "speedup": result.speedup,
               "baseline_seconds": result.baseline_makespan,
               "split_seconds": result.split_makespan,
               "baseline_tasks": result.baseline_tasks,
               "split_tasks": result.split_tasks,
           })
    assert result.speedup > 1.5
