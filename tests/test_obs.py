"""Tests for the observability layer (:mod:`repro.obs`): tracer
spans, the metrics registry, exporters, and the end-to-end threading
through planner, engine, scheduler and the fluent query API —
including cross-process collection from pool workers."""

import json
import os
import pickle
import re
import threading

import pytest

from repro import Metrics, Q, Spanner, Tracer
from repro.engine import ExtractionEngine, Program
from repro.engine.stats import EngineStats
from repro.obs import (
    DEFAULT_BUCKETS,
    NULL_TRACER,
    kernel_metrics,
    render_span_tree,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
)
from repro.obs.trace import SpanRecord
from repro.runtime import RegisteredSplitter, evaluate_whole
from repro.runtime.fast import (
    CompiledSpanner,
    FastSeparatorSplitter,
    RegexSpanner,
)
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import separator_splitter

ALPHABET = frozenset("ab .")
PATTERN = ".*( )y{a+}( ).*|y{a+}( ).*|.*( )y{a+}|y{a+}"


def arun_spanner() -> Spanner:
    return Spanner.regex(PATTERN, ALPHABET)


def token_registry():
    return [
        RegisteredSplitter(
            "tokens", separator_splitter(ALPHABET, " ."),
            priority=1, executor=FastSeparatorSplitter(" ."),
        ),
    ]


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_and_record_parentage(self):
        tracer = Tracer()
        with tracer.span("certify") as outer:
            with tracer.span("compile"):
                pass
            outer.set("cache_hit", False)
        records = {record.name: record for record in tracer.records()}
        assert records["compile"].parent_id == records["certify"].span_id
        assert records["certify"].parent_id is None
        assert records["certify"].attributes["cache_hit"] is False
        assert records["certify"].duration >= records["compile"].duration

    def test_span_inc_accumulates(self):
        tracer = Tracer()
        with tracer.span("evaluate") as span:
            span.inc("chunks")
            span.inc("chunks", 2)
        assert tracer.records()[0].attributes["chunks"] == 3

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("evaluate"):
                raise ValueError("boom")
        record = tracer.records()[0]
        assert record.attributes["error"] == "ValueError"

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("certify", program="p") as span:
            span.set("k", 1)
            span.inc("n")
        assert len(tracer) == 0
        assert tracer.adopt([], parent_id=None) == []

    def test_null_tracer_is_shared_and_inert(self):
        handle = NULL_TRACER.span("anything")
        with handle:
            pass
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.span("x") is handle  # one shared object

    def test_thread_local_stacks_keep_parents_straight(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            with tracer.span(name):
                barrier.wait()
                with tracer.span(f"{name}.child"):
                    pass

        threads = [threading.Thread(target=worker, args=(f"t{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        by_name = {record.name: record for record in tracer.records()}
        for i in range(2):
            assert (by_name[f"t{i}.child"].parent_id
                    == by_name[f"t{i}"].span_id)

    def test_adopt_renumbers_and_reparents(self):
        tracer = Tracer()
        with tracer.span("evaluate") as span:
            host_id = span.span_id
        foreign = [
            SpanRecord("evaluate", span_id=1, parent_id=None,
                       start=10.0, duration=0.5, pid=999, tid=1),
            SpanRecord("inner", span_id=2, parent_id=1,
                       start=10.1, duration=0.1, pid=999, tid=1),
        ]
        adopted = tracer.adopt(foreign, parent_id=host_id)
        assert adopted[0].parent_id == host_id
        assert adopted[1].parent_id == adopted[0].span_id
        ids = [record.span_id for record in tracer.records()]
        assert len(ids) == len(set(ids))

    def test_phase_durations_skip_same_name_descendants(self):
        tracer = Tracer()
        with tracer.span("evaluate") as outer:
            outer_id = outer.span_id
        # A worker's own "evaluate" span adopted under the phase span
        # must not double the phase total.
        tracer.adopt(
            [SpanRecord("evaluate", span_id=1, parent_id=None,
                        start=0.0, duration=100.0, pid=999, tid=1)],
            parent_id=outer_id,
        )
        totals = tracer.phase_durations()
        assert totals["evaluate"] < 100.0

    def test_drain_empties_the_buffer(self):
        tracer = Tracer()
        with tracer.span("split"):
            pass
        shipped = tracer.drain()
        assert [record.name for record in shipped] == ["split"]
        assert len(tracer) == 0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_roundtrip(self):
        metrics = Metrics()
        metrics.counter("c").inc(2)
        metrics.counter("c").inc()
        metrics.gauge("g").set(7)
        hist = metrics.histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        snapshot = metrics.snapshot()
        assert snapshot["c"] == 3
        assert snapshot["g"] == 7
        assert snapshot["h"]["count"] == 3
        assert snapshot["h"]["buckets"]["+Inf"] == 1
        assert hist.mean == pytest.approx((0.05 + 0.5 + 5.0) / 3)
        assert hist.quantile(0.5) == 1.0

    def test_labels_distinguish_instruments(self):
        metrics = Metrics()
        metrics.counter("chunks", pid=1).inc(5)
        metrics.counter("chunks", pid=2).inc(7)
        assert metrics.value("chunks", pid=1) == 5
        assert metrics.value("chunks", pid=2) == 7
        assert metrics.value("chunks") == 0  # unlabeled never touched

    def test_merge_sums_counters_and_buckets_exactly(self):
        a, b = Metrics(), Metrics()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.counter("only_b").inc(4)
        a.gauge("g").set(3)
        b.gauge("g").set(9)
        a.histogram("h").observe(0.2)
        b.histogram("h").observe(0.3)
        a.merge(b)
        assert a.value("c") == 3
        assert a.value("only_b") == 4
        assert a.value("g") == 9  # gauges keep the max
        assert a.histogram("h").count == 2
        # Merging is exact: equal to observing everything in one place.
        single = Metrics()
        single.histogram("h").observe(0.2)
        single.histogram("h").observe(0.3)
        assert a.histogram("h").counts == single.histogram("h").counts

    def test_histogram_bound_mismatch_raises(self):
        a, b = Metrics(), Metrics()
        a.histogram("h", buckets=(1.0,))
        b.histogram("h", buckets=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_registry_pickles(self):
        metrics = Metrics()
        metrics.counter("c").inc(5)
        metrics.histogram("h").observe(0.01)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.value("c") == 5
        assert clone.histogram("h").count == 1
        clone.counter("c").inc()  # locks were rebuilt
        assert clone.value("c") == 6

    def test_prometheus_exposition_shape(self):
        metrics = Metrics()
        metrics.counter("engine.chunks_total").inc(4)
        metrics.histogram("engine.chunk_eval_seconds",
                          buckets=(0.1, 1.0)).observe(0.05)
        text = to_prometheus(metrics)
        assert "# TYPE engine_chunks_total counter" in text
        assert "engine_chunks_total 4" in text
        assert 'engine_chunk_eval_seconds_bucket{le="0.1"} 1' in text
        assert 'engine_chunk_eval_seconds_bucket{le="+Inf"} 1' in text
        assert "engine_chunk_eval_seconds_count 1" in text


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def _traced(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("certify", program="p"):
            with tracer.span("compile"):
                pass
        return tracer

    def test_chrome_trace_exports_and_validates(self, tmp_path):
        tracer = self._traced()
        payload = to_chrome_trace(tracer.records())
        validate_chrome_trace(payload)
        names = {event["name"] for event in payload["traceEvents"]
                 if event["ph"] == "X"}
        assert names == {"certify", "compile"}
        path = tmp_path / "trace.json"
        tracer.export_chrome(str(path))
        validate_chrome_trace(json.loads(path.read_text()))

    def test_chrome_trace_validation_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})  # no X events

    def test_span_tree_renders_nesting(self):
        tree = render_span_tree(self._traced().records())
        lines = tree.splitlines()
        assert lines[0].startswith("certify")
        assert lines[1].startswith("  compile")


# ----------------------------------------------------------------------
# EngineStats satellites
# ----------------------------------------------------------------------


class TestEngineStats:
    def test_since_keeps_extra(self):
        before = EngineStats(documents=1, extra={"shard": 0, "n": 2})
        after = EngineStats(documents=3, extra={"shard": 0, "n": 5})
        delta = after.since(before)
        assert delta.documents == 2
        assert delta.extra == {"shard": 0, "n": 3}
        assert "shard" in delta.snapshot()

    def test_stats_is_a_view_over_the_registry(self):
        engine = ExtractionEngine(token_registry())
        spanner = compile_regex_formula(PATTERN, ALPHABET)
        engine.run(["aa ab a.", "aa ab a."], Program(spanner))
        stats = engine.stats()
        assert stats.documents == 2
        assert stats.documents == engine.metrics.value("engine.documents")
        assert stats.chunks_evaluated == engine.metrics.value(
            "engine.chunk_cache.misses")
        assert stats.tuples_emitted == engine.metrics.value(
            "engine.tuples_emitted")


# ----------------------------------------------------------------------
# End-to-end threading
# ----------------------------------------------------------------------


class TestTracedEngine:
    def test_untraced_engine_adds_no_spans(self):
        engine = ExtractionEngine(token_registry())
        spanner = compile_regex_formula(PATTERN, ALPHABET)
        engine.run(["aa ab a."], Program(spanner))
        assert engine.tracer is NULL_TRACER
        assert len(engine.tracer) == 0

    def test_traced_run_covers_every_phase(self):
        tracer = Tracer()
        engine = ExtractionEngine(token_registry(), tracer=tracer)
        spanner = compile_regex_formula(PATTERN, ALPHABET)
        engine.run(["aa ab a.", "ab aa b."], Program(spanner))
        names = {record.name for record in tracer.records()}
        assert {"certify", "split", "prefilter", "schedule",
                "evaluate", "merge"} <= names
        phases = tracer.phase_durations()
        assert phases["schedule"] >= phases["evaluate"]

    def test_cross_process_spans_and_metrics(self):
        """workers=2: worker-side spans/metrics ship back and merge."""
        tracer = Tracer()
        spanner = compile_regex_formula(PATTERN, ALPHABET)
        texts = [f"aa ab a{'a' * (i % 5)}." for i in range(12)]
        with ExtractionEngine(token_registry(), workers=2,
                              tracer=tracer) as engine:
            result = engine.run(texts, Program(spanner))
            baseline = ExtractionEngine(token_registry()).run(
                texts, Program(spanner))
            assert result.by_document == baseline.by_document

            records = tracer.records()
            worker_pids = {record.pid for record in records
                           if record.pid != os.getpid()}
            assert worker_pids, "no spans came back from pool workers"
            by_id = {record.span_id: record for record in records}
            evaluate_ids = {record.span_id for record in records
                            if record.name == "evaluate"
                            and record.pid == os.getpid()}
            worker_roots = [record for record in records
                            if record.pid != os.getpid()
                            and record.parent_id in evaluate_ids]
            assert worker_roots, "worker spans not parented under evaluate"
            assert all(by_id[record.parent_id].name == "evaluate"
                       for record in worker_roots)

            # Worker-side metrics merged into the engine registry.
            snapshot = engine.metrics.snapshot()
            busy = [key for key in snapshot
                    if key.startswith("engine.worker_busy_seconds")]
            assert busy
            latency = engine.metrics.histogram("engine.chunk_eval_seconds")
            assert latency.count == engine.stats().chunks_evaluated
            queue_wait = engine.metrics.histogram(
                "scheduler.queue_wait_seconds")
            assert queue_wait.count == len(worker_roots)

            validate_chrome_trace(tracer.to_chrome_trace())

    def test_kernel_metrics_record_lowering(self):
        before = kernel_metrics().value("kernel.lowerings")
        spanner = compile_regex_formula(PATTERN, ALPHABET)
        CompiledSpanner(spanner).evaluate("aa ab a.")
        assert kernel_metrics().value("kernel.lowerings") > before
        assert kernel_metrics().value("kernel.states_lowered") > 0


class TestTracedQuery:
    def test_traced_query_end_to_end(self):
        corpus = {"d1": "aa ab a.", "d2": "ab ab aa.", "d3": "aa ab a."}
        query = (Q(arun_spanner()).split_by("tokens").workers(2)
                 .traced())
        results = query.over(corpus)
        try:
            materialized = results.materialize()
            assert len(materialized) == 3
            explain = results.explain()
            assert explain["trace"]["enabled"] is True
            phases = explain["trace"]["phases"]
            assert {"certify", "evaluate"} <= set(phases)
            assert all(duration >= 0 for duration in phases.values())
            assert results.trace.enabled
            tree = results.trace.render_tree()
            assert "certify" in tree and "evaluate" in tree
        finally:
            query.engine().close()

    def test_untraced_query_reports_disabled_trace(self):
        results = (Q(arun_spanner()).split_by("tokens")
                   .over({"d": "aa ab a."}))
        explain = results.explain()
        assert explain["trace"] == {"enabled": False}

    def test_traced_accepts_a_shared_tracer_and_rejects_junk(self):
        from repro.errors import ReproError

        shared = Tracer()
        query = Q(arun_spanner()).split_by("tokens").traced(shared)
        query.over({"d": "aa ab a."}).materialize()
        assert len(shared) > 0
        with pytest.raises(ReproError):
            Q(arun_spanner()).traced("yes")

    def test_fast_executable_with_traced_workers(self):
        """The RegexSpanner production path traces across the pool too."""
        specification = compile_regex_formula(PATTERN, ALPHABET)
        fast = RegexSpanner(r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)",
                            specification=specification)
        query = (Q(Spanner(fast)).split_by("tokens").workers(2)
                 .traced())
        results = query.over([f"aa ab a{'a' * i}." for i in range(8)])
        try:
            assert results.total_tuples() > 0
            assert len(results.trace) > 0
        finally:
            query.engine().close()


class TestDisabledOverhead:
    def test_disabled_tracer_span_is_allocation_free(self):
        tracer = Tracer(enabled=False)
        spans = {tracer.span("evaluate") for _ in range(100)}
        assert len(spans) == 1  # always the shared NULL_SPAN

    def test_disabled_path_overhead_is_negligible(self):
        """A run with the default (disabled) tracer stays within noise
        of the pre-observability hot path: the no-op span handle is
        the only added work per batch."""
        import time as _time

        spanner = compile_regex_formula(PATTERN, ALPHABET)
        texts = [f"aa ab a{'a' * (i % 7)}." for i in range(30)]

        def run_once() -> float:
            engine = ExtractionEngine(token_registry())
            start = _time.perf_counter()
            engine.run(texts, Program(spanner))
            return _time.perf_counter() - start

        # Not a benchmark — just a sanity bound loose enough to never
        # flake: the untraced run must not be dramatically slower than
        # a second identical untraced run (no hidden tracing state
        # accumulates between engines).
        first = min(run_once() for _ in range(2))
        second = min(run_once() for _ in range(2))
        assert second < first * 3 + 0.05


#: ``PATTERN`` with ``.`` as a delimiter too, and the ``re`` pattern
#: extracting the same a-runs (the pair ``tests/test_engine.py``
#: validates).
DOTTED_PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
                  "|.*(\\.| )y{a+}|y{a+}")
A_RUN_REGEX = r"(?:^|[ .])(?P<y>a+)(?=[ .]|$)"

#: What the engine may be asked to run on chunks: a VSet-automaton
#: (lowered to the batch-capable kernel), a runner with ``evaluate``
#: only, and one that cannot be pickled (it holds a lambda).
RUNNER_KINDS = {
    "compiled": lambda spec: spec,
    "regex": lambda spec: RegexSpanner(A_RUN_REGEX, specification=spec),
    "unpicklable": lambda spec: RegexSpanner(
        A_RUN_REGEX, specification=spec, cost=lambda match: None),
}


class TestChunkLatencyCoverage:
    """Every workers/tracer/runner combination returns
    ``evaluate_whole``'s tuples and populates
    ``engine.chunk_eval_seconds`` — the untraced multiprocess path used
    to skip it entirely (chunks ran in workers, nothing observed)."""

    @pytest.mark.parametrize("runner", sorted(RUNNER_KINDS))
    @pytest.mark.parametrize(
        "workers,traced",
        [(0, False), (0, True), (2, False), (2, True)],
        ids=["inproc", "inproc-traced", "pool", "pool-traced"],
    )
    def test_chunk_eval_histogram_populated(self, workers, traced, runner):
        spanner = compile_regex_formula(DOTTED_PATTERN, ALPHABET)
        texts = [f"aa ab a{'a' * (i % 5)}." for i in range(12)]
        engine = ExtractionEngine(
            token_registry(), workers=workers, batch_size=4,
            tracer=Tracer() if traced else None,
        )
        try:
            result = engine.run(
                texts, Program(RUNNER_KINDS[runner](spanner), spanner))
            assert result.plan.plan.self_splittable
            for index, text in enumerate(texts):
                assert result[f"doc-{index:04d}"] \
                    == evaluate_whole(spanner, text)
            latency = engine.metrics.histogram(
                "engine.chunk_eval_seconds")
            evaluated = engine.stats().chunks_evaluated
            assert evaluated > 0
            assert latency.count == evaluated
            assert latency.sum >= 0.0
        finally:
            engine.close()


class LoggingRunner:
    """A batch-capable runner appending ``pid kind texts`` to a file
    per call — how the parent sees what ran in a pool task."""

    def __init__(self, runner, log_path):
        self.runner = runner
        self.log_path = log_path

    def _log(self, kind, texts):
        with open(self.log_path, "a", encoding="ascii") as handle:
            handle.write(f"{os.getpid()} {kind} {texts}\n")

    def evaluate(self, text):
        self._log("evaluate", 1)
        return self.runner.evaluate(text)

    def evaluate_batch(self, texts, latency=None):
        self._log("evaluate_batch", len(texts))
        return self.runner.evaluate_batch(texts, latency)

    def calls(self):
        with open(self.log_path, encoding="ascii") as handle:
            return [(int(pid), kind, int(texts)) for pid, kind, texts
                    in map(str.split, handle)]


class TestTracingKeepsTheExecutionShape:
    """Instrumentation observes the pool path; it must not alter it."""

    TEXTS = [f"aa ab a{'a' * (i % 7)} b{'a' * (i % 3)}." for i in range(24)]

    def test_traced_and_untraced_pool_tasks_are_the_same(self, tmp_path):
        spanner = compile_regex_formula(DOTTED_PATTERN, ALPHABET)
        shapes = {}
        for traced in (False, True):
            runner = LoggingRunner(CompiledSpanner(spanner),
                                   str(tmp_path / f"traced-{traced}.log"))
            with ExtractionEngine(
                token_registry(), workers=2, batch_size=8,
                tracer=Tracer() if traced else None,
            ) as engine:
                engine.run(self.TEXTS, Program(runner, spanner))
            calls = runner.calls()
            assert {kind for _pid, kind, _texts in calls} \
                == {"evaluate_batch"}
            assert all(pid != os.getpid() for pid, _kind, _texts in calls)
            # One call per task, however the tasks fall on the workers
            # (which decides what each worker's cache already holds).
            assert sum(texts for _pid, _kind, texts in calls) \
                == engine.stats().chunks_evaluated
            shapes[traced] = len(calls)
        assert shapes[True] == shapes[False]

    def test_enabling_tracing_keeps_the_pool(self, captured_events):
        import multiprocessing

        def worker_pids():
            return {child.pid for child in multiprocessing.active_children()}

        program = Program(compile_regex_formula(DOTTED_PATTERN, ALPHABET))
        before = worker_pids()
        engine = ExtractionEngine(token_registry(), workers=2, batch_size=8)
        try:
            engine.run(self.TEXTS, program)
            workers = worker_pids() - before
            assert len(workers) == 2
            queue_wait = engine.metrics.histogram(
                "scheduler.queue_wait_seconds")
            untraced_tasks = queue_wait.count
            evaluated = engine.stats().chunks_evaluated

            tracer = engine.enable_tracing()
            engine.chunk_cache.clear()
            engine.run(self.TEXTS, program)
            assert worker_pids() - before == workers
        finally:
            engine.close()
        captured = captured_events()
        events = [event["event"] for event in captured]
        assert events.count("engine.pool.start") == 1
        assert "engine.pool.retire" not in events
        start = captured[events.index("engine.pool.start")]
        assert (start["workers"], start["start_method"]) \
            == (2, multiprocessing.get_start_method())

        records = tracer.records()
        phase_ids = {record.span_id for record in records
                     if record.name == "evaluate"
                     and record.pid == os.getpid()}
        worker = [record for record in records if record.pid != os.getpid()]
        assert worker and {record.pid for record in worker} <= workers
        tasks = [record for record in worker if record.name == "evaluate"]
        assert all(record.parent_id in phase_ids for record in tasks)
        # Each task's worker-side split and merge hang under its span.
        task_ids = {record.span_id for record in tasks}
        assert sorted(record.name for record in worker
                      if record.parent_id in task_ids) \
            == ["merge"] * len(tasks) + ["split"] * len(tasks)
        assert len(worker) == 3 * len(tasks)
        assert sum(record.attributes["chunks"] for record in tasks) \
            == engine.stats().chunks_evaluated - evaluated > 0
        assert queue_wait.count - untraced_tasks == len(tasks) \
            == untraced_tasks
        # The parent's evaluate phases say how many tasks they waited
        # for, and how long is one observation per pooled batch.
        phases = [record for record in records
                  if record.span_id in phase_ids]
        assert sum(record.attributes["tasks"] for record in phases) \
            == len(tasks)
        pooled = sum(1 for record in phases if record.attributes["tasks"])
        assert engine.metrics.histogram(
            "scheduler.collect_wait_seconds").count == 2 * pooled > 0


# ----------------------------------------------------------------------
# Histogram quantile edges  (satellite: p99 must stay finite)
# ----------------------------------------------------------------------


class TestHistogramQuantileEdges:
    def _histogram(self, metrics=None):
        metrics = metrics or Metrics()
        return metrics.histogram("h", buckets=(0.1, 1.0))

    def test_empty_histogram_is_zero_everywhere(self):
        histogram = self._histogram()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 0.0

    def test_overflow_bucket_clamps_to_last_bound(self):
        histogram = self._histogram()
        histogram.observe(50.0)          # beyond every bound
        for q in (0.0, 0.5, 0.99, 1.0):
            value = histogram.quantile(q)
            assert value == 1.0          # finite: the last bound
            assert value != float("inf")

    def test_q0_returns_first_occupied_bucket(self):
        histogram = self._histogram()
        histogram.observe(0.5)           # lands in the 1.0 bucket
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 1.0

    def test_below_first_bound_reports_first_bound(self):
        histogram = self._histogram()
        histogram.observe(0.01)
        assert histogram.quantile(0.0) == 0.1
        assert histogram.quantile(1.0) == 0.1

    def test_mixed_population_percentiles(self):
        histogram = self._histogram()
        for _ in range(99):
            histogram.observe(0.05)      # 0.1 bucket
        histogram.observe(10.0)          # overflow
        assert histogram.quantile(0.5) == 0.1
        assert histogram.quantile(0.99) == 0.1
        assert histogram.quantile(1.0) == 1.0  # clamped, not inf

    def test_out_of_range_q_rejected(self):
        histogram = self._histogram()
        histogram.observe(0.05)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.1)


# ----------------------------------------------------------------------
# Prometheus text-format conformance  (satellite)
# ----------------------------------------------------------------------

_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>\S+)$")


class TestPrometheusConformance:
    """Pin ``to_prometheus`` to the text exposition format: legal
    names, ``# TYPE`` before samples, cumulative monotone buckets,
    ``+Inf`` == ``_count``, and escaped label values."""

    def _registry(self):
        metrics = Metrics()
        metrics.counter("engine.chunks_total",
                        tenant="acme").inc(4)
        metrics.gauge("queue.depth").set(2)
        histogram = metrics.histogram("engine.chunk_eval_seconds",
                                      buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        return metrics

    def test_every_line_parses(self):
        text = to_prometheus(self._registry())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, rest = line.partition("# TYPE ")
                name, kind = rest.split(" ")
                assert _PROM_NAME.match(name)
                assert kind in ("counter", "gauge", "histogram")
            else:
                match = _PROM_SAMPLE.match(line)
                assert match, f"unparseable sample line: {line!r}"
                float(match.group("value"))  # numeric

    def test_type_header_precedes_all_samples_of_a_family(self):
        text = to_prometheus(self._registry())
        seen_types = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                seen_types.add(line.split(" ")[2])
            else:
                name = _PROM_SAMPLE.match(line).group("name")
                base = re.sub(r"_(bucket|sum|count)$", "", name)
                assert base in seen_types or name in seen_types

    def test_histogram_buckets_cumulative_and_complete(self):
        text = to_prometheus(self._registry())
        buckets = []
        count = None
        for line in text.splitlines():
            match = _PROM_SAMPLE.match(line) if not line.startswith("#") \
                else None
            if not match:
                continue
            if match.group("name") == "engine_chunk_eval_seconds_bucket":
                buckets.append(line)
            if match.group("name") == "engine_chunk_eval_seconds_count":
                count = float(match.group("value"))
        values = [float(_PROM_SAMPLE.match(b).group("value"))
                  for b in buckets]
        assert values == sorted(values)          # cumulative monotone
        assert 'le="+Inf"' in buckets[-1]
        assert values[-1] == count == 3
        sum_line = next(line for line in text.splitlines()
                        if line.startswith("engine_chunk_eval_seconds_sum"))
        assert float(sum_line.split(" ")[1]) == pytest.approx(5.55)

    def test_label_values_escaped(self):
        metrics = Metrics()
        metrics.counter("c", who='we"ird\\x\ny').inc()
        text = to_prometheus(metrics)
        assert r'who="we\"ird\\x\ny"' in text
        # Round-trip: unescaping restores the original value.
        raw = re.search(r'who="((?:[^"\\]|\\.)*)"', text).group(1)
        unescaped = (raw.replace(r"\n", "\n").replace(r"\"", '"')
                     .replace(r"\\", "\\"))
        assert unescaped == 'we"ird\\x\ny'

    def test_dotted_names_sanitized(self):
        metrics = Metrics()
        metrics.counter("service.queries").inc()
        text = to_prometheus(metrics)
        assert "service_queries 1" in text
        assert "service.queries" not in text
