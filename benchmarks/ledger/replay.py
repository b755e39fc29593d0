"""Per-layer numbers, measured from outside the program.

After the untraced timed passes, the replay walks the same inputs
through each layer's *public* function inside harness-owned spans —
``splitter_spans`` + ``Span.extract``, ``IndexFilter.admits``,
``ChunkCache.lookup``/``store``, ``runner.evaluate_batch`` on the
runner from ``engine.runner_for``, ``SpanTuple.shift`` — in the order
the engine runs them, one 32-document batch at a time.
``replay.coverage`` says how much of a real pass that model explains.

Three further replays share the inputs: ``Scheduler.run`` driven
directly (in-process, and over a pool where the workload uses one),
``engine.run`` as the base of the query layer's overhead, and a pass
under the program's own ``Q(...).traced()`` whose span tree is reduced
to self times here (never by summing ``phase_durations()``).
"""

from __future__ import annotations

import os
import pickle
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from repro import IndexFilter, SegmentedIndex, Tracer, factors_of
from repro import kernel_metrics
from repro.engine import ChunkCache, Corpus, Scheduler
from repro.obs import Metrics
from repro.runtime.executor import splitter_spans

from benchmarks.ledger.pipeline import BATCH_SIZE, build_query
from benchmarks.ledger.spans import Recorder, root_seconds, self_times
from benchmarks.ledger.timing import (
    CalibratedTimer,
    Sample,
    clock,
    median_of,
)

#: Layer replays per run; each per-layer time is their median.  Small
#: corpora (``--smoke``) get more, up to the cap, until the replays
#: have run for ``REPLAY_SECONDS``: a 10 ms pass is too easily upset.
REPLAY_PASSES = 3
REPLAY_SECONDS = 0.3
MAX_REPLAY_PASSES = 25

#: Span name of each replayed layer -> the metric its seconds feed.
LAYER_SECONDS = {
    "query.over": "query.over_s",
    "split": "split.s",
    "index.admits": "index.admits_s",
    "chunk_cache.lookup": "chunk_cache.lookup_s",
    "kernel.evaluate": "kernel.evaluate_s",
    "chunk_cache.store": "chunk_cache.store_s",
    "merge.shift": "merge.shift_s",
    "query.collect": "query.collect_s",
}


class CountingRunner:
    """A chunk runner that logs every ``evaluate_batch`` call.

    The scheduler accepts any runner, so this is how the harness sees
    what actually crosses to a pool worker — how many tasks, how many
    characters, how long the worker was busy — without reading the
    scheduler's private state.  One appended line per call; the path
    is a string, so the wrapper ships to workers however the scheduler
    chooses to ship it.
    """

    def __init__(self, runner, log_path: str) -> None:
        self.runner = runner
        self.log_path = log_path

    def evaluate(self, text: str):
        return self.runner.evaluate(text)

    def evaluate_batch(self, texts, latency=None):
        started = clock()
        results = self.runner.evaluate_batch(texts, latency)
        line = (f"{os.getpid()} {len(texts)} {sum(map(len, texts))} "
                f"{clock() - started!r}\n")
        fd = os.open(self.log_path,
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, line.encode("ascii"))
        finally:
            os.close(fd)
        return results


def _layer_pass(rec: Recorder, query, corpus: Corpus, target, runner,
                index_filter, latency) -> Dict[str, float]:
    """One pass through the layers; returns the pass's counts.

    The bookkeeping mirrors ``Scheduler.run``: a chunk text repeated
    within a batch is looked up once and counted as a hit afterwards;
    only texts missing from the cache reach the kernel.
    """
    cache = ChunkCache()
    namespace = "replay"
    swept = kernel_metrics().counter("kernel.bytes_swept")
    swept_before = swept.value
    counts = dict.fromkeys(
        ("chunks", "admitted", "productive", "evaluated",
         "evaluated_chars", "tuples", "text_bytes", "result_bytes",
         "pickle_s"), 0.0)
    collected = {}
    with rec.span("replay.pass"):
        with rec.span("query.over"):
            # Binding a corpus touches no document: plan-cache hit,
            # a stats snapshot, the result set.
            query.over(corpus)
        for batch in corpus.batches(BATCH_SIZE):
            with rec.span("split"):
                by_document = [
                    (document,
                     [(span, span.extract(document.text))
                      for span in splitter_spans(target, document.text)])
                    for document in batch
                ]
            counts["chunks"] += sum(len(c) for _d, c in by_document)
            if index_filter is not None:
                with rec.span("index.admits"):
                    by_document = [
                        (document, [chunk for chunk in chunks
                                    if index_filter.admits(chunk[1])])
                        for document, chunks in by_document
                    ]
            counts["admitted"] += sum(len(c) for _d, c in by_document)
            with rec.span("chunk_cache.lookup"):
                seen: Dict[str, object] = {}
                missing: List[str] = []
                for _document, chunks in by_document:
                    for _span, text in chunks:
                        if text in seen:
                            cache.record_batch_hit()
                            continue
                        cached = cache.lookup(namespace, text)
                        seen[text] = cached
                        if cached is None:
                            missing.append(text)
            with rec.span("kernel.evaluate"):
                results = runner.evaluate_batch(missing, latency)
            with rec.span("chunk_cache.store"):
                for text, found in zip(missing, results):
                    seen[text] = cache.store(namespace, text, found)
            with rec.span("merge.shift"):
                resolved = {}
                for document, chunks in by_document:
                    merged = resolved.setdefault(document.doc_id, set())
                    for span, text in chunks:
                        merged.update(t.shift(span) for t in seen[text])
                    counts["tuples"] += len(merged)
            with rec.span("query.collect"):
                # What ResultSet does with each document it is handed:
                # freeze and retain (retained results are also what
                # the garbage collector then has to walk).
                for doc_id, merged in resolved.items():
                    collected[doc_id] = frozenset(merged)
            # Outside every span: what a pool would have to pickle to
            # move this batch's kernel work to another process.
            started = clock()
            texts_blob = pickle.dumps(missing)
            results_blob = pickle.dumps(results)
            pickle.loads(texts_blob)
            pickle.loads(results_blob)
            counts["pickle_s"] += clock() - started
            counts["text_bytes"] += len(texts_blob)
            counts["result_bytes"] += len(results_blob)
            counts["evaluated"] += len(missing)
            counts["evaluated_chars"] += sum(map(len, missing))
            counts["productive"] += sum(
                1 for _d, chunks in by_document
                for _s, text in chunks if seen[text])
    counts["bytes_swept"] = swept.value - swept_before
    counts["hit_rate"] = cache.hit_rate
    counts["entries"] = len(cache)
    counts["evictions"] = cache.evictions
    return counts


def _scheduler_pass(runner, tasks: Sequence[list], workers: int,
                    log_path: str) -> Tuple[List[float], List[list]]:
    """Drive ``Scheduler.run`` once per pre-split batch; returns the
    call durations and the runner's call log (pid, texts, chars,
    seconds per ``evaluate_batch``)."""
    if os.path.exists(log_path):
        os.unlink(log_path)
    scheduler = Scheduler(workers=workers, batch_size=BATCH_SIZE,
                          metrics=Metrics())
    counting = CountingRunner(runner, log_path)
    cache = ChunkCache()
    durations = []
    try:
        for batch_tasks in tasks:
            started = clock()
            scheduler.run(counting, batch_tasks, cache, "replay")
            durations.append(clock() - started)
    finally:
        scheduler.close()
    calls = []
    if os.path.exists(log_path):
        with open(log_path, encoding="ascii") as handle:
            calls = [line.split() for line in handle]
    return durations, calls


def replay_pipeline(
    rec: Recorder,
    kind: str,
    corpus: Corpus,
    workers: int,
    base_pass_s: float,
    workdir: str,
    index_path: Optional[str] = None,
) -> Dict[str, object]:
    """Every per-layer metric a batch-shaped workload can produce.

    ``base_pass_s`` is the median untraced pass at reference speed;
    every duration here is brought to reference speed the same way,
    so the ratios between phases minutes apart mean something.
    """
    out: Dict[str, object] = {}
    corpus_bytes = corpus.total_characters()
    timer = CalibratedTimer()

    def reference(operation):
        """``(result, seconds at reference speed, factor)``."""
        result, seconds, _cpu, factor = timer.run(operation)
        return result, seconds, factor

    # -- planner and kernel lowering: one cold certification ----------
    query = build_query(kind, workers=workers)
    engine = query.engine()
    program = query.program()
    certified, out["planner.certify_s"], _ = reference(
        lambda: engine.certify(program))
    # A self-splittable plan runs the program itself on chunks and
    # lowers it onto the kernel on first use, which is here.  (A
    # rewritten plan lowers inside certify; that cost stays there.)
    runner, out["kernel.compile_s"], _ = reference(
        lambda: engine.runner_for(certified, program))

    def plan_cache_hits() -> List[float]:
        hits = []
        for _ in range(200):
            started = clock()
            program.fingerprint()
            engine.certify(program)
            hits.append(clock() - started)
        return hits

    hits, _, factor = reference(plan_cache_hits)
    out["planner.replay_us"] = median_of(hits, 1e6 / factor)

    target = certified.plan.splitter.runtime_splitter()

    # -- index: open, factor analysis, cold admits ---------------------
    index = index_filter = None
    if index_path is not None:
        def opens() -> List[float]:
            durations = []
            for _ in range(5):
                started = clock()
                opened = SegmentedIndex.open(index_path)
                durations.append(clock() - started)
                opened.close()
            return durations

        durations, _, factor = reference(opens)
        out["index.open_ms"] = median_of(durations, 1e3 / factor)
        index = SegmentedIndex.open(index_path)
        _, seconds, _ = reference(
            lambda: factors_of(certified.factor_source()))
        out["index.factors_ms"] = seconds * 1e3
        index_filter = IndexFilter(certified.factor_set(), index)
        chunk_texts = [
            span.extract(document.text) for document in corpus
            for span in splitter_spans(target, document.text)
        ]
        _, out["index.cold_admits_s"], _ = reference(
            lambda: [index_filter.admits(text) for text in chunk_texts])

    # -- the layer replay ---------------------------------------------
    latency = Metrics().histogram("engine.chunk_eval_seconds")
    layer_seconds: Dict[str, List[float]] = {n: [] for n in LAYER_SECONDS}
    replayed_s = 0.0
    while (len(layer_seconds["split"]) < REPLAY_PASSES
           or (replayed_s < REPLAY_SECONDS
               and len(layer_seconds["split"]) < MAX_REPLAY_PASSES)):
        before = len(rec.spans)
        counts, seconds, factor = reference(lambda: _layer_pass(
            rec, query, corpus, target, runner, index_filter, latency))
        replayed_s += seconds
        fresh = rec.spans[before:]
        for name in LAYER_SECONDS:
            layer_seconds[name].append(sum(
                s.end - s.start for s in fresh if s.name == name) / factor)
    for name, metric in LAYER_SECONDS.items():
        out[metric] = median_of(layer_seconds[name])
    layers_total = sum(out[m].value for m in LAYER_SECONDS.values())
    out["replay.coverage"] = layers_total / base_pass_s
    out["replay.unattributed_s"] = base_pass_s - layers_total

    evaluate_s = out["kernel.evaluate_s"].value
    split_s = out["split.s"].value
    out["kernel.chunks_evaluated"] = counts["evaluated"]
    out["kernel.bytes_swept"] = counts["bytes_swept"]
    if counts["evaluated"]:
        out["kernel.mb_per_s"] = counts["evaluated_chars"] / 1e6 / evaluate_s
        out["kernel.us_per_chunk"] = evaluate_s * 1e6 / counts["evaluated"]
        out["kernel.v2_share"] = (counts["bytes_swept"]
                                  / counts["evaluated_chars"])
    out["split.chunks"] = counts["chunks"]
    out["split.mb_per_s"] = corpus_bytes / 1e6 / split_s
    out["split.us_per_chunk"] = split_s * 1e6 / counts["chunks"]
    out["chunk_cache.hit_rate"] = counts["hit_rate"]
    out["chunk_cache.dedup_factor"] = (
        counts["admitted"] / max(1.0, counts["evaluated"]))
    out["chunk_cache.entries"] = counts["entries"]
    out["chunk_cache.evictions"] = counts["evictions"]
    out["merge.tuples"] = counts["tuples"]
    out["ipc.text_bytes"] = counts["text_bytes"]
    out["ipc.result_bytes"] = counts["result_bytes"]
    out["ipc.pickle_s"] = counts["pickle_s"] / factor
    if index_filter is not None:
        out["index.prune_rate"] = 1.0 - counts["admitted"] / counts["chunks"]
        out["index.wasted_admit_rate"] = (
            1.0 - counts["productive"] / max(1.0, counts["admitted"]))

    # -- Scheduler.run, driven directly -------------------------------
    tasks = []
    for batch in corpus.batches(BATCH_SIZE):
        batch_tasks = []
        for document in batch:
            chunks = [(span, span.extract(document.text))
                      for span in splitter_spans(target, document.text)]
            if index_filter is not None:
                chunks = [c for c in chunks if index_filter.admits(c[1])]
            batch_tasks.append((document.doc_id, chunks))
        tasks.append(batch_tasks)
    log_path = os.path.join(workdir, "runner-calls.log")

    def scheduler_replay(pool_size: int):
        with rec.span(f"scheduler.run[workers={pool_size}]"):
            (durations, calls), _, factor = reference(
                lambda: _scheduler_pass(runner, tasks, pool_size, log_path))
        return ([d / factor for d in durations],
                sum(float(call[3]) for call in calls) / factor, len(calls))

    durations, busy_s, _ = scheduler_replay(0)
    run_s = inproc_s = sum(durations)
    out["scheduler.batches"] = len(durations)
    if workers > 1:
        durations, busy_s, out["ipc.tasks"] = scheduler_replay(workers)
        steady = statistics.median(durations[1:] or durations)
        out["pool.start_s"] = max(0.0, durations[0] - steady)
        # The pool's start-up is set-up, not dispatch: count the
        # first call at the steady rate.
        run_s = sum(durations[1:]) + steady
        out["pool.speedup"] = inproc_s / run_s
        out["pool.worker_busy_share"] = busy_s / (workers * run_s)
    out["scheduler.run_s"] = run_s
    out["scheduler.dispatch_overhead_s"] = (
        run_s - out["chunk_cache.lookup_s"].value
        - out["chunk_cache.store_s"].value - out["merge.shift_s"].value
        - busy_s / max(1, workers))

    # -- engine.run: the base of the query layer's overhead -----------
    if index_path is not None:
        engine.attach_index(index_path)
    engine.run(corpus, program)
    runs = []
    for _ in range(REPLAY_PASSES):
        engine.chunk_cache.clear()
        runs.append(reference(lambda: engine.run(corpus, program))[1])
    engine.close()
    if engine.index is not None:
        engine.index.close()
    out["query.overhead_ratio"] = base_pass_s / statistics.median(runs)
    if index is not None:
        index.close()

    # -- the program's own trace --------------------------------------
    tracer = Tracer()
    traced = build_query(kind, workers=workers).traced(tracer)
    engine = traced.engine()
    if index_path is not None:
        engine.attach_index(index_path)
    try:
        traced.over(corpus).materialize()
        walls = []
        for _ in range(REPLAY_PASSES):
            engine.chunk_cache.clear()
            tracer.clear()
            _, seconds, factor = reference(
                lambda: traced.over(corpus).materialize())
            walls.append(seconds)
        records = tracer.records()
    finally:
        engine.close()
        if engine.index is not None:
            engine.index.close()
    own = self_times(records)
    covered = root_seconds(records) / factor
    out["obs.trace_overhead_ratio"] = statistics.median(walls) / base_pass_s
    out["obs.phase_coverage"] = covered / walls[-1]
    out["obs.unattributed_s"] = walls[-1] - covered
    out["obs.spans"] = len(records)
    for phase in ("split", "prefilter", "schedule", "evaluate", "merge"):
        out[f"trace.{phase}_self_s"] = own.get(phase, 0.0) / factor
    return out


def as_samples(values: Dict[str, object]) -> Dict[str, Sample]:
    return {name: value if isinstance(value, Sample) else Sample(value)
            for name, value in values.items()}
