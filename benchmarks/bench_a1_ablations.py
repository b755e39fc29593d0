"""A1 — ablations of the design choices behind the speedup experiments.

Three sweeps isolating what drives the split-then-distribute gains the
Introduction reports:

* **skew** — speedup vs. the mass fraction held by the largest
  document (the straggler effect);
* **batching** — speedup vs. record batch size (scheduling overhead
  amortization; both extremes lose);
* **workers** — speedup vs. pool width at fixed skew (splitting only
  matters once whole documents can no longer fill the pool).
"""

import pytest

from benchmarks.conftest import report
from benchmarks.corpora import skewed_prose_corpus
from benchmarks.simulation import simulate_corpus_speedup
from benchmarks.workloads import TokenNgramExtractor, sentence_splitter_fast


def _speedup(head_fraction=0.6, chunksize=8, workers=5,
             total_sentences=600):
    corpus = skewed_prose_corpus(
        n_documents=24, total_sentences=total_sentences, seed=11,
        head_fraction=head_fraction,
    )
    extractor = TokenNgramExtractor(2, work=60)
    result = simulate_corpus_speedup(
        extractor, corpus, sentence_splitter_fast(),
        workers=workers, repeats=2, chunksize=chunksize,
    )
    return result.speedup


@pytest.mark.benchmark(group="a1-ablations")
def test_a1_skew_sweep(benchmark):
    def sweep():
        return [(f, _speedup(head_fraction=f)) for f in (0.1, 0.3, 0.6)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = ", ".join(f"head={f:.0%}: {s:.2f}x" for f, s in rows)
    report("A1 skew", "speedup grows with document-length skew", text)
    assert rows[-1][1] > rows[0][1]


@pytest.mark.benchmark(group="a1-ablations")
def test_a1_batching_sweep(benchmark):
    def sweep():
        return [(c, _speedup(chunksize=c)) for c in (1, 8, 64, 4096)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = ", ".join(f"batch={c}: {s:.2f}x" for c, s in rows)
    report("A1 batching",
           "moderate batches beat per-record overhead and giant batches",
           text)
    best = max(s for _c, s in rows)
    # The best batch size is an interior point of the sweep.
    assert best > rows[0][1] or best > rows[-1][1]


@pytest.mark.benchmark(group="a1-ablations")
def test_a1_worker_sweep(benchmark):
    def sweep():
        return [(w, _speedup(workers=w)) for w in (1, 2, 5, 10)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = ", ".join(f"workers={w}: {s:.2f}x" for w, s in rows)
    report("A1 workers", "splitting is neutral at 1 worker, grows with "
                         "pool width until the tail dominates", text)
    assert rows[0][1] == pytest.approx(1.0, rel=0.3)
    assert max(s for _w, s in rows) >= rows[0][1]
