"""The names the ledger reports under: workloads, metrics, bounds.

This is the single source of truth.  ``BENCHMARK.json`` is
:func:`manifest` written out (``python -m benchmarks.ledger
--manifest``); the harness refuses to emit a metric that is not
listed here and fills every listed metric a workload does not
exercise with 0, so each run reports the full set.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: Every size in ISSUE 11 is multiplied by this.  The driver allows a
#: run about 25 s all told (set-up five times over, ``RUN_SECONDS``
#: of measuring, the oracle); at full size one ``dense-inproc`` pass
#: alone takes 3.4 s.  Pass *counts* were not cut: every timed loop
#: runs for ``--seconds`` and never fewer than five passes.
SCALE = 0.1
#: ``--smoke`` runs at a twentieth of that.
SMOKE_SCALE = SCALE / 20
RUN_SECONDS = 8
#: How many times a run sets the program up; ``setup_s`` is the median.
SETUPS = 5
#: A percentile needs ten samples beyond it: 200 operations for the
#: p95.  Default-scale loops run on until they have that many.
MIN_OPERATIONS = 200


class Workload(NamedTuple):
    name: str
    why: str


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end: the regression bound.  Per-layer: 0.0 (no bound).
    bound: float = 0.0
    #: Per-layer: which end-to-end metric it should move, and where.
    moves: str = ""


WORKLOADS: List[Workload] = [
    Workload("dense-inproc",
             "every chunk misses the cache and reaches the automaton: "
             "the kernel does ~90% of the work, in one process"),
    Workload("dense-pool",
             "same inputs with workers(2): scheduler dispatch, shm "
             "attach and result pickling join the blocking path"),
    Workload("boilerplate-inproc",
             "cache hit rate above 0.99: split, cache lookup and "
             "merge/shift carry the pass, the kernel is idle"),
    Workload("selective-indexed",
             "read use of the binary index: the prefilter prunes ~95% of "
             "chunks for ~4% of the pass; split and the surviving "
             "kernel work carry it"),
    Workload("edit-delta",
             "write use of the same index: run_delta edits, delta "
             "segments, tombstones, compaction, alongside reads"),
    Workload("serve-http",
             "closed loop of 2 clients over POST /extract: the hot set "
             "fits the LRU-bounded cache, the cold quarter evicts; one "
             "dispatcher, so queue wait and HTTP cost add to the cold "
             "kernel work"),
]

#: What one *operation* is, per workload (``op_p50_ms``/``op_p95_ms``).
OPERATIONS: Dict[str, str] = {
    "dense-inproc": "one 32-document batch delivered by stream()",
    "dense-pool": "one 32-document batch delivered by stream()",
    "boilerplate-inproc": "one 32-document batch delivered by stream()",
    "selective-indexed": "one 32-document batch delivered by stream()",
    "edit-delta": "one run_delta round (edit in, updated tuples out)",
    "serve-http": "one POST /extract, connect to last body byte",
}

#: Bounds.  ISSUE 11 asked for 10 % (15 % on the tails).  One bound per
#: metric has to hold on every workload, and three sets of ten seeds on
#: the 2-core sandbox — calibrated clock and all — put the run-to-run
#: spread (quartile distance over median) at up to 0.11 for rates,
#: medians and CPU, 0.19 for the tail and for set-up, 0.04 for memory;
#: edit-delta (which fsyncs every round) and serve-http (which needs
#: both cores) are the noisy ones, the in-process workloads sit at
#: 0.01-0.06.  Each bound is about twice the widest spread seen, under
#: the contract's cap of 0.25.  ``--compare`` prints the spread it
#: actually sees next to each verdict.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("mb_per_s", "MB/s", "higher", 0.20),
    Metric("cpu_s_per_mb", "s/MB", "lower", 0.20),
    Metric("op_p50_ms", "ms", "lower", 0.20),
    Metric("op_p95_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
]

_BATCH = "mb_per_s on the batch workloads"

PER_LAYER: List[Metric] = [
    # planner (runtime/planner, core)
    Metric("planner.certify_s", "s", "lower", moves="setup_s everywhere"),
    Metric("planner.replay_us", "us", "lower",
           moves="op_p50_ms on serve-http"),
    # kernel (automata/compiled, shm)
    Metric("kernel.compile_s", "s", "lower", moves="setup_s everywhere"),
    Metric("kernel.evaluate_s", "s", "lower",
           moves="mb_per_s, cpu_s_per_mb on dense-* (~0.9 share) and "
           "selective-indexed (~0.4); op_p50_ms on serve-http (the cold "
           "quarter); none on boilerplate"),
    Metric("kernel.chunks_evaluated", "count", "lower", moves=_BATCH),
    Metric("kernel.bytes_swept", "bytes", "lower", moves=_BATCH),
    Metric("kernel.mb_per_s", "MB/s", "higher", moves="mb_per_s on dense-*"),
    Metric("kernel.us_per_chunk", "us", "lower",
           moves="mb_per_s on dense-*"),
    Metric("kernel.v2_share", "ratio", "higher",
           moves="mb_per_s on dense-*"),
    # split (splitters, runtime/fast)
    Metric("split.s", "s", "lower",
           moves="mb_per_s on boilerplate-inproc and selective-indexed "
           "(~0.5 share each)"),
    Metric("split.chunks", "count", "lower", moves=_BATCH),
    Metric("split.mb_per_s", "MB/s", "higher",
           moves="mb_per_s on boilerplate-inproc"),
    Metric("split.us_per_chunk", "us", "lower",
           moves="mb_per_s on boilerplate-inproc"),
    # chunk_cache (engine/cache)
    Metric("chunk_cache.lookup_s", "s", "lower",
           moves="mb_per_s on boilerplate-inproc"),
    Metric("chunk_cache.store_s", "s", "lower",
           moves="mb_per_s on dense-inproc"),
    Metric("chunk_cache.hit_rate", "ratio", "higher", moves=_BATCH),
    Metric("chunk_cache.dedup_factor", "ratio", "higher", moves=_BATCH),
    Metric("chunk_cache.entries", "count", "lower", moves="peak_rss_mb"),
    Metric("chunk_cache.evictions", "count", "lower",
           moves="op_p50_ms on serve-http"),
    # merge (Scheduler.run pass 3)
    Metric("merge.shift_s", "s", "lower",
           moves="mb_per_s on boilerplate-inproc"),
    Metric("merge.tuples", "count", "lower",
           moves="mb_per_s on boilerplate-inproc"),
    # scheduler (engine/scheduler, runtime/executor)
    Metric("scheduler.run_s", "s", "lower", moves="mb_per_s on dense-pool"),
    Metric("scheduler.dispatch_overhead_s", "s", "lower",
           moves="mb_per_s on dense-pool"),
    Metric("scheduler.batches", "count", "lower",
           moves="mb_per_s on dense-pool"),
    Metric("pool.start_s", "s", "lower", moves="setup_s on dense-pool"),
    Metric("pool.speedup", "ratio", "higher",
           moves="mb_per_s on dense-pool"),
    Metric("pool.worker_busy_share", "ratio", "higher",
           moves="mb_per_s on dense-pool"),
    Metric("ipc.tasks", "count", "lower", moves="mb_per_s on dense-pool"),
    Metric("ipc.text_bytes", "bytes", "lower",
           moves="mb_per_s on dense-pool"),
    Metric("ipc.result_bytes", "bytes", "lower",
           moves="mb_per_s on dense-pool"),
    Metric("ipc.pickle_s", "s", "lower", moves="mb_per_s on dense-pool"),
    # index (index/*, index/store)
    Metric("index.build_s", "s", "lower",
           moves="setup_s on selective-indexed, edit-delta"),
    Metric("index.build_mb_per_s", "MB/s", "higher",
           moves="setup_s on selective-indexed, edit-delta"),
    Metric("index.json_build_s", "s", "lower", moves="none (comparison)"),
    Metric("index.bytes", "bytes", "lower", moves="peak_rss_mb"),
    Metric("index.bytes_per_text_byte", "ratio", "lower",
           moves="itself: the space leg of the index trade-off, gated "
           "at 2 % by --compare on selective-indexed, edit-delta"),
    Metric("index.segments", "count", "lower",
           moves="mb_per_s on selective-indexed"),
    Metric("index.open_ms", "ms", "lower",
           moves="setup_s on selective-indexed"),
    Metric("index.factors_ms", "ms", "lower",
           moves="setup_s on selective-indexed"),
    Metric("index.first_pass_s", "s", "lower",
           moves="setup_s on selective-indexed"),
    Metric("index.cold_admits_s", "s", "lower",
           moves="setup_s on selective-indexed"),
    Metric("index.admits_s", "s", "lower",
           moves="mb_per_s on selective-indexed (~0.04 share, memo warm)"),
    Metric("index.prune_rate", "ratio", "higher",
           moves="mb_per_s on selective-indexed"),
    Metric("index.wasted_admit_rate", "ratio", "lower",
           moves="mb_per_s on selective-indexed"),
    Metric("index.update_s", "s", "lower",
           moves="op_p50_ms, op_p95_ms on edit-delta"),
    Metric("index.delta_segments", "count", "lower",
           moves="mb_per_s on edit-delta"),
    Metric("index.tombstones", "count", "lower",
           moves="mb_per_s on edit-delta"),
    Metric("index.fragmented_pass_s", "s", "lower",
           moves="mb_per_s on edit-delta"),
    Metric("index.refresh_pass_s", "s", "lower",
           moves="mb_per_s on edit-delta"),
    Metric("index.compact_s", "s", "lower",
           moves="cpu_s_per_mb on edit-delta"),
    Metric("index.compact_bytes_rewritten", "bytes", "lower",
           moves="cpu_s_per_mb on edit-delta"),
    # delta (run_delta, runtime/incremental)
    Metric("delta.chunks_reevaluated", "count", "lower",
           moves="op_p50_ms on edit-delta"),
    Metric("delta.reevaluated_share", "ratio", "lower",
           moves="op_p50_ms on edit-delta"),
    # query (query/*)
    Metric("query.first_result_ms", "ms", "lower",
           moves="op_p50_ms on the batch workloads"),
    Metric("query.over_s", "s", "lower", moves=_BATCH),
    Metric("query.collect_s", "s", "lower", moves=_BATCH),
    Metric("query.overhead_ratio", "ratio", "lower", moves=_BATCH),
    # service (serve/service)
    Metric("service.direct_p50_ms", "ms", "lower",
           moves="op_p50_ms on serve-http"),
    Metric("service.queue_wait_p50_ms", "ms", "lower",
           moves="op_p50_ms, op_p95_ms on serve-http (the wait behind "
           "the other client's run, where the service sees it)"),
    Metric("service.run_p50_ms", "ms", "lower",
           moves="op_p50_ms on serve-http"),
    Metric("service.rejected", "count", "lower",
           moves="failed operations on serve-http"),
    Metric("service.deadline_missed", "count", "lower",
           moves="failed operations on serve-http"),
    # http (serve/http)
    Metric("http.overhead_p50_ms", "ms", "lower",
           moves="op_p50_ms on serve-http (0.8-2.4 ms of ~5.5: next to "
           "connect/parse/encode it absorbs any wait for the server's "
           "processor or interpreter lock)"),
    Metric("http.connect_ms", "ms", "lower",
           moves="op_p50_ms on serve-http"),
    Metric("http.request_bytes_mean", "bytes", "lower",
           moves="op_p50_ms on serve-http"),
    Metric("http.response_bytes_mean", "bytes", "lower",
           moves="op_p50_ms on serve-http"),
    Metric("http.client_codec_ms", "ms", "lower",
           moves="none (client cost, outside the timed request)"),
    Metric("http.request_p99_ms", "ms", "lower",
           moves="op_p95_ms on serve-http"),
    Metric("http.requests_per_s", "1/s", "higher",
           moves="itself: mb_per_s over the fixed request size, gated "
           "at mb_per_s's bound by --compare on serve-http"),
    # obs (obs/*): a cross-check on the replay, tracing is off in
    # timed passes
    Metric("obs.trace_overhead_ratio", "ratio", "lower", moves="none"),
    Metric("obs.phase_coverage", "ratio", "higher", moves="none"),
    Metric("obs.unattributed_s", "s", "lower", moves="none"),
    Metric("obs.spans", "count", "lower", moves="none"),
    Metric("trace.split_self_s", "s", "lower", moves="none"),
    Metric("trace.prefilter_self_s", "s", "lower", moves="none"),
    Metric("trace.schedule_self_s", "s", "lower", moves="none"),
    Metric("trace.evaluate_self_s", "s", "lower", moves="none"),
    Metric("trace.merge_self_s", "s", "lower", moves="none"),
    # harness
    Metric("replay.coverage", "ratio", "higher", moves="none"),
    Metric("replay.unattributed_s", "s", "lower", moves="none"),
    Metric("bench.corpus_gen_s", "s", "lower", moves="none"),
    Metric("bench.machine_factor", "ratio", "lower", moves="none"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


class Gate(NamedTuple):
    """A per-layer metric ``--compare`` holds to a bound all the same."""

    name: str
    bound: float
    workloads: Tuple[str, ...]


#: ISSUE 11's end-to-end metrics that exist on some workloads only.  The
#: driver wants every end-to-end metric from every workload, so they are
#: per-layer in ``BENCHMARK.json``; ``--compare`` gates them here.
GATED_PER_LAYER: List[Gate] = [
    # Deterministic for a seed, hence the tight bound.
    Gate("index.bytes_per_text_byte", 0.02,
         ("selective-indexed", "edit-delta")),
    Gate("http.requests_per_s", 0.20, ("serve-http",)),
]


def annotations() -> Dict[str, object]:
    """What ``BENCHMARK.json`` may not hold (the driver's contract fixes
    its keys): the scale cut, what an operation is, which end-to-end
    metric each per-layer metric should move, the gated per-layer
    metrics.  A ledger run writes this into ``ledger.json`` next to its
    numbers; ``LEDGER.json`` in this directory is the latest such file."""
    return {
        "scale": SCALE,
        "run_seconds": RUN_SECONDS,
        "setups": SETUPS,
        "operations": OPERATIONS,
        "moves": {m.name: m.moves for m in PER_LAYER},
        "gated_per_layer": [
            {"name": g.name, "bound": g.bound, "workloads": list(g.workloads)}
            for g in GATED_PER_LAYER
        ],
    }


def manifest() -> Dict[str, object]:
    """``BENCHMARK.json``, exactly the keys the driver's contract names."""
    return {
        "command": ["python3", "benchmarks/ledger/__main__.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
