"""E3 — Reuters financial-event extraction on Spark (Introduction).

Paper claim: extracting financial transactions between organizations
from ~9,000 Reuters articles on a 5-node Spark cluster, breaking each
article into sentences reduced running time by 1.99x — with the *same*
parallelism before and after; the gain comes from giving the scheduler
more, smaller tasks.

Reproduction: article-shaped corpus with in-sentence ``Org pays Org``
events; whole-article tasks vs sentence tasks on a 5-worker simulated
pool (measured costs).  The split plan's output is checked equal to
the baseline's in ``benchmarks/test_workloads.py``.
"""

import pytest

from benchmarks.conftest import report
from benchmarks.corpora import reuters_like_corpus
from benchmarks.simulation import simulate_corpus_speedup
from benchmarks.workloads import EventExtractor, sentence_splitter_fast

WORKERS = 5


def _newswire_corpus():
    # Newswire mixes many briefs with a few long feature pieces; long
    # pieces picked up late are the coarse plan's stragglers.
    briefs = reuters_like_corpus(n_articles=140, mean_sentences=8, seed=37)
    features = reuters_like_corpus(n_articles=4, mean_sentences=250,
                                   seed=39)
    return briefs[:120] + features + briefs[120:]


CORPUS = _newswire_corpus()


@pytest.mark.benchmark(group="e3-events")
def test_e3_event_extraction(benchmark):
    extractor = EventExtractor(work=60)
    result = benchmark.pedantic(
        lambda: simulate_corpus_speedup(
            extractor, CORPUS, sentence_splitter_fast(), workers=WORKERS,
            repeats=2, chunksize=8,
        ),
        rounds=1, iterations=1,
    )
    report("E3", "1.99x (5-node Spark, ~9,000 Reuters articles)",
           f"{result.speedup:.2f}x (5 simulated workers, "
           f"{result.baseline_tasks} -> {result.split_tasks} tasks)",
           metrics={
               "workload": "Reuters-shaped event extraction",
               "speedup": result.speedup,
               "baseline_seconds": result.baseline_makespan,
               "split_seconds": result.split_makespan,
               "baseline_tasks": result.baseline_tasks,
               "split_tasks": result.split_tasks,
           })
    assert result.speedup > 1.2
