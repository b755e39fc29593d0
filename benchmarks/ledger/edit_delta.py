"""``edit-delta``: the write use of the index, alongside reads.

One engine with a binary ``SegmentedIndex`` attached.  The timed phase
runs *cycles* until ``--seconds`` is up, and never fewer than two: 110
edit rounds through ``engine.run_delta`` (each rewrites one sentence
in 1 % of the documents), two passes over the now fragmented index, one
``compact()``, one pass that pays for the refreshed candidate masks
and four warm passes over the compacted index.  The operation is the
edit round — edit in, updated tuples out; ``mb_per_s`` is the warm
post-compaction pass.  Counts that describe fragmentation are read at
the end of the *first* cycle's edits, so they repeat exactly.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List

from repro import Corpus
from repro.runtime.executor import splitter_spans

from benchmarks.ledger import catalog, corpora
from benchmarks.ledger.batch import MIN_PASSES
from benchmarks.ledger.pipeline import (
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

DOCUMENTS = 4000         # at ISSUE 11's nominal size, before scaling
SENTENCES = 12
HIT_RATE = 0.5
EDIT_SHARE = 0.01
ROUNDS_PER_CYCLE = 110
#: However short ``--seconds``: 220 rounds (``catalog.MIN_OPERATIONS``
#: and a few) put 11 beyond ``op_p95_ms``.
MIN_CYCLES = 2
#: Rounds timed between two calibration spins.
ROUNDS_PER_BLOCK = 10
FRAGMENTED_PASSES = 2
COMPACTED_PASSES = 4
#: Rounds the replay decomposes into split / index update / run.
REPLAY_ROUNDS = 20


class EditDeltaWorkload:
    name = "edit-delta"

    def __init__(self, scale: float) -> None:
        self.n_documents = max(8, round(DOCUMENTS * scale))
        # --smoke checks the plumbing, not the tail: one cycle there.
        self.min_cycles = MIN_CYCLES if scale >= catalog.SCALE else 1
        self.setups = 0
        self.setup_factor = 1.0   # set by the harness after each set-up
        self.layers: Dict[str, object] = {}

    def generate(self, seed: int) -> None:
        rng = random.Random(f"edit-delta/{seed}")
        self.documents = corpora.sentence_documents(
            rng, self.n_documents, SENTENCES, HIT_RATE)
        self.edits = random.Random(f"edit-delta/edits/{seed}")
        self.doc_ids = self.corpus().doc_ids()
        # Before any edit: what the set-ups index.
        self.indexed_bytes = sum(len(d.text) for d in self.documents)

    def corpus(self) -> Corpus:
        return Corpus.from_texts([d.text for d in self.documents])

    # -- set-up --------------------------------------------------------

    def _indexed_query(self, workdir: str):
        """Certify, build the binary index over the current corpus,
        attach it by path, and fill the chunk cache with one pass.
        Returns ``(query, index path, build figures)``."""
        query = build_query("qz")
        query.certify()
        self.setups += 1
        path = os.path.join(workdir, f"index-{self.setups}")
        return query, path, indexed_setup(query, self.corpus(), path)

    def setup(self, workdir: str) -> None:
        self.query, _path, figures = self._indexed_query(workdir)
        self.layers.update(figures)

    def teardown(self) -> None:
        engine = self.query.engine()
        engine.close()
        engine.index.close()

    # -- the timed operations ------------------------------------------

    def _edit(self):
        """Draw the next edit round: ``(doc ids, payload, planted)``."""
        edited = corpora.edit_round(self.edits, self.documents,
                                    EDIT_SHARE, HIT_RATE)
        ids = [self.doc_ids[position] for position in edited]
        payload = {doc_id: doc.text
                   for doc_id, doc in zip(ids, edited.values())}
        return ids, payload, [doc.planted for doc in edited.values()]

    def measure(self, seconds: float) -> None:
        engine = self.query.engine()
        program = self.query.program()
        index = engine.index
        timer = CalibratedTimer()
        ops: List[float] = []          # edit rounds
        compacted_s: List[float] = []  # warm post-compaction passes
        fragmented_s: List[float] = []
        refresh_s: List[float] = []
        compact_s: List[float] = []
        reevaluated: List[int] = []
        round_chunks = 0
        cpu_total = 0.0
        bytes_total = 0
        self.attempted = self.failed = 0
        base_segments = index.segment_count

        def timed_pass(bucket: List[float]) -> None:
            nonlocal cpu_total, bytes_total
            corpus = self.corpus()
            (start, _marks, end, results), _, cpu, factor = timer.run(
                lambda: stream_pass(self.query, corpus))
            bucket.append((end - start) / factor)
            cpu_total += cpu
            bytes_total += corpus.total_characters()
            planted = [d.planted for d in self.documents]
            self.attempted += len(self.documents)
            self.failed += miscounted(results, self.doc_ids, planted)
            self.last_results = results

        def edit_block() -> List[float]:
            nonlocal bytes_total, round_chunks
            durations = []
            for _ in range(ROUNDS_PER_BLOCK):
                ids, payload, planted = self._edit()
                started = clock()
                result = engine.run_delta(payload, program)
                durations.append(clock() - started)
                bytes_total += sum(map(len, payload.values()))
                reevaluated.append(result.stats.chunk_cache_misses)
                round_chunks += result.stats.chunks_total
                self.attempted += 1
                self.failed += bool(
                    planted_mismatches(result.by_document, ids, planted))
            return durations

        began = clock()
        cycles = 0
        while cycles < self.min_cycles or clock() - began < seconds:
            for _ in range(ROUNDS_PER_CYCLE // ROUNDS_PER_BLOCK):
                durations, _, cpu, factor = timer.run(edit_block)
                ops.extend(d / factor for d in durations)
                cpu_total += cpu
            if not cycles:
                described = index.describe()
                self.layers["index.delta_segments"] = (
                    described["segments"] - base_segments)
                self.layers["index.tombstones"] = described["tombstones"]
            for _ in range(FRAGMENTED_PASSES):
                timed_pass(fragmented_s)
            summary, seconds_taken, cpu, _ = timer.run(index.compact)
            compact_s.append(seconds_taken)
            cpu_total += cpu
            if not cycles:
                self.layers["index.compact_bytes_rewritten"] = \
                    summary["bytes"]
            # The first pass after compact() recomputes the candidate
            # masks and refills the admit memo; it is its own number.
            timed_pass(refresh_s)
            for _ in range(COMPACTED_PASSES):
                timed_pass(compacted_s)
            cycles += 1
        while len(compacted_s) < MIN_PASSES:
            timed_pass(compacted_s)

        megabytes = sum(len(d.text) for d in self.documents) / 1e6
        self.pass_s = compacted_s
        self.e2e = {
            "mb_per_s": rate_of(megabytes, compacted_s),
            "cpu_s_per_mb": Sample(cpu_total / (bytes_total / 1e6)),
            "op_p50_ms": median_of(ops, 1e3),
            "op_p95_ms": percentile_of(ops, 95, 1e3),
        }
        self.layers.update({
            "index.fragmented_pass_s": median_of(fragmented_s),
            "index.refresh_pass_s": median_of(refresh_s),
            "index.compact_s": median_of(compact_s),
            "delta.chunks_reevaluated": median_of(reevaluated),
            "delta.reevaluated_share": sum(reevaluated) / round_chunks,
            "bench.machine_factor": median_of(timer.factors),
        })

    def verify(self) -> None:
        texts = [d.text for d in self.documents]
        planted = [d.planted for d in self.documents]
        self.failed += planted_mismatches(self.last_results, self.doc_ids,
                                          planted)
        self.failed += oracle_mismatches(self.query.spanner, texts, planted)

    # -- per-layer ----------------------------------------------------

    def replay(self, rec: Recorder, workdir: str) -> Dict[str, Sample]:
        query, path, _figures = self._indexed_query(workdir)
        engine = query.engine()
        program = query.program()
        certified = query.certify()
        target = certified.plan.splitter.runtime_splitter()
        index = engine.index
        # run_delta, taken apart: chunk the edited documents, diff them
        # into the index (one delta segment), then an ordinary run.
        timer = CalibratedTimer()

        def decomposed_round() -> None:
            _ids, payload, _planted = self._edit()
            with rec.span("delta.round"):
                with rec.span("split"):
                    chunked = {
                        doc_id: [span.extract(text)
                                 for span in splitter_spans(target, text)]
                        for doc_id, text in payload.items()
                    }
                with rec.span("index.update"):
                    with index.batch():
                        for doc_id, texts in chunked.items():
                            index.update_document(doc_id, texts)
                with rec.span("engine.run"):
                    engine.run(payload, program)

        updates: List[float] = []
        for _ in range(REPLAY_ROUNDS):
            _, _, _, factor = timer.run(decomposed_round)
            updates.append(rec.durations("index.update")[-1] / factor)
        self.layers["index.update_s"] = median_of(updates)
        index.compact()
        engine.close()
        index.close()

        corpus = self.corpus()
        out = replay_pipeline(rec, "qz", corpus, 0,
                              median_of(self.pass_s).value, workdir,
                              path)
        out.update(self.layers)
        finish_index_metrics(out, self.setup_factor, self.indexed_bytes)
        return as_samples(out)
