"""The four batch workloads: ``Q(...).over(corpus)``, bytes in to
tuples out, pass after pass.

One class, four parameterisations.  A *pass* clears the chunk cache
(``engine.chunk_cache.clear()``; plan cache and pool stay warm) and
drains ``Q(...).over(corpus).stream()``.  A timestamp is taken as the
first document of every 32-document batch arrives, so a pass also
yields one *operation* latency per batch — enough samples for a p95.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import Corpus

from benchmarks.ledger import catalog, corpora
from benchmarks.ledger.pipeline import (
    BATCH_SIZE,
    build_query,
    finish_index_metrics,
    indexed_setup,
    miscounted,
    oracle_mismatches,
    planted_mismatches,
    stream_pass,
)
from benchmarks.ledger.replay import as_samples, replay_pipeline
from benchmarks.ledger.spans import Recorder
from benchmarks.ledger.timing import (
    CalibratedTimer,
    Sample,
    clock,
    median_of,
    percentile_of,
    rate_of,
)

#: Never fewer timed passes than this, however short ``--seconds``.
MIN_PASSES = 5


@dataclass(frozen=True)
class BatchSpec:
    kind: str            # "qz" (sentence chunks) or "a" (token chunks)
    documents: int       # at ISSUE 11's nominal size, before scaling
    sentences: int
    hit_rate: float = 0.0
    workers: int = 0
    indexed: bool = False


SPECS: Dict[str, BatchSpec] = {
    "dense-inproc": BatchSpec("qz", 4000, 12, hit_rate=0.5),
    "dense-pool": BatchSpec("qz", 4000, 12, hit_rate=0.5, workers=2),
    "boilerplate-inproc": BatchSpec("a", 2500, 30),
    "selective-indexed": BatchSpec("qz", 8000, 12, hit_rate=0.05,
                                   indexed=True),
}


class BatchWorkload:
    def __init__(self, name: str, scale: float) -> None:
        self.name = name
        self.spec = SPECS[name]
        self.n_documents = max(BATCH_SIZE // 4,
                               round(self.spec.documents * scale))
        # --smoke checks the plumbing, not the tail: no floor there.
        self.min_operations = (catalog.MIN_OPERATIONS
                               if scale >= catalog.SCALE else 0)
        self.query = None
        self.index_path: Optional[str] = None
        self.setups = 0
        #: Set by the harness after each set-up: how much slower than
        #: reference the machine ran during it.
        self.setup_factor = 1.0
        self.extra_layers: Dict[str, object] = {}

    # -- inputs --------------------------------------------------------

    def generate(self, seed: int) -> None:
        spec = self.spec
        # Keyed by what is generated, not by the workload's name:
        # dense-inproc and dense-pool get identical inputs.
        rng = random.Random(f"{spec.kind}/{spec.hit_rate}/{seed}")
        if spec.kind == "a":
            self.texts, self.planted = corpora.boilerplate_documents(
                rng, self.n_documents, spec.sentences)
        else:
            documents = corpora.sentence_documents(
                rng, self.n_documents, spec.sentences, spec.hit_rate)
            self.texts = [d.text for d in documents]
            self.planted = [d.planted for d in documents]
        self.corpus = Corpus.from_texts(self.texts)
        self.doc_ids = self.corpus.doc_ids()
        self.bytes = sum(len(text) for text in self.texts)

    # -- set-up --------------------------------------------------------

    def setup(self, workdir: str) -> None:
        """Cold certify and lowering, index build and attach, pool
        spawn and shm publish (inside the warm-up pass)."""
        spec = self.spec
        self.query = build_query(spec.kind, workers=spec.workers)
        self.query.certify()
        if spec.indexed:
            self.setups += 1
            self.index_path = os.path.join(workdir,
                                           f"index-{self.setups}")
            self.extra_layers.update(indexed_setup(
                self.query, self.corpus, self.index_path))
        else:
            self.run_pass()

    def teardown(self) -> None:
        engine = self.query.engine()
        engine.close()
        if engine.index is not None:
            engine.index.close()

    # -- the timed operation -------------------------------------------

    def run_pass(self):
        return stream_pass(self.query, self.corpus)

    def measure(self, seconds: float) -> None:
        pass_s: List[float] = []
        cpu_s: List[float] = []
        ops: List[float] = []
        first: List[float] = []
        failed = 0
        timer = CalibratedTimer()
        began = clock()
        while (len(pass_s) < MIN_PASSES or clock() - began < seconds
               or len(ops) < self.min_operations):
            (start, marks, end, results), _, cpu, factor = timer.run(
                self.run_pass)
            pass_s.append((end - start) / factor)
            cpu_s.append(cpu)
            first.append((marks[0] - start) / factor)
            ops.extend((b - a) / factor
                       for a, b in zip([start] + marks, marks))
            failed += miscounted(results, self.doc_ids, self.planted)
        self.last_results = results
        self.pass_s = pass_s
        megabytes = self.bytes / 1e6
        self.e2e = {
            "mb_per_s": rate_of(megabytes, pass_s),
            "cpu_s_per_mb": median_of(cpu_s, 1 / megabytes),
            "op_p50_ms": median_of(ops, 1e3),
            "op_p95_ms": percentile_of(ops, 95, 1e3),
        }
        self.extra_layers["query.first_result_ms"] = median_of(first, 1e3)
        self.extra_layers["bench.machine_factor"] = median_of(timer.factors)
        self.attempted = len(pass_s) * len(self.texts)
        self.failed = failed

    def verify(self) -> None:
        self.failed += planted_mismatches(self.last_results, self.doc_ids,
                                          self.planted)
        self.failed += oracle_mismatches(self.query.spanner, self.texts,
                                         self.planted)

    # -- per-layer ----------------------------------------------------

    def replay(self, rec: Recorder, workdir: str) -> Dict[str, Sample]:
        base = median_of(self.pass_s).value
        out = replay_pipeline(rec, self.spec.kind, self.corpus,
                              self.spec.workers, base, workdir,
                              self.index_path)
        out.update(self.extra_layers)
        if self.spec.indexed:
            finish_index_metrics(out, self.setup_factor, self.bytes)
            fresh = build_query(self.spec.kind)
            fresh.certify()
            _, out["index.json_build_s"], _, _ = CalibratedTimer().run(
                lambda: fresh.engine().build_index(self.corpus,
                                                   fresh.program()))
        return as_samples(out)
