"""Tests for the service-grade introspection layer: the structured
event log (:mod:`repro.obs.log`), the query flight recorder
(:mod:`repro.obs.flight`), and the live ``/debug`` endpoints wired
through :class:`repro.serve.ExtractionService` and
:class:`repro.serve.ServiceHTTPServer`."""

import io
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import Corpus, ExtractionEngine, Program
from repro.errors import DeadlineExceededError
from repro.obs import (
    FlightRecorder,
    QueryRecord,
    Tracer,
    configure_event_log,
    event_log,
    phase_durations,
)
from repro.obs.flight import KEEP_SLOW
from repro.obs.log import EventLog
from repro.obs.trace import SpanRecord
from repro.query import Q, Spanner
from repro.runtime import FastSeparatorSplitter, RegisteredSplitter
from repro.serve import ExtractionService, ServiceHTTPServer
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter

TXT = frozenset("ab .")
PATTERN = (".*(\\.| )y{a+}(\\.| ).*|y{a+}(\\.| ).*"
           "|.*(\\.| )y{a+}|y{a+}")

DOCS = ["aa ab a.", "ab ab aa.", "aa ab a.", "b aa b"]


def a_run_extractor():
    return compile_regex_formula(PATTERN, TXT)


def registry():
    return [
        RegisteredSplitter("tokens", token_splitter(TXT), priority=1,
                           executor=FastSeparatorSplitter(" ")),
    ]


class SlowSpanner:
    """Per-chunk evaluation takes ``delay`` seconds — what makes
    wall-clock deadlines fire mid-run reliably."""

    def __init__(self, specification, delay=0.02):
        self.specification = specification
        self.delay = delay

    def evaluate(self, text):
        time.sleep(self.delay)
        return set(self.specification.evaluate(text))


def make_service(workers=0, batch_size=2, flight=None, program=None,
                 **kwargs):
    engine = ExtractionEngine(registry(), workers=workers,
                              batch_size=batch_size)
    if program is None:
        program = Program(a_run_extractor(), name="a-runs")
    return ExtractionService(engine, program=program, flight=flight,
                             **kwargs)


# ----------------------------------------------------------------------
# The structured event log
# ----------------------------------------------------------------------


class TestEventLog:
    def test_disabled_without_handlers(self):
        log = EventLog(name="repro.test.disabled")
        assert not log.enabled
        assert log.emit("anything", n=1) is None

    def test_emit_envelope_is_one_json_line(self):
        log = EventLog(name="repro.test.envelope")
        stream = io.StringIO()
        handler = log.attach(__import__("logging").StreamHandler(stream))
        try:
            payload = log.emit("unit.ping", tenant="acme", answer=42)
        finally:
            log.detach(handler)
        assert payload["event"] == "unit.ping"
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        for key in ("ts", "mono", "level", "event", "pid"):
            assert key in parsed
        assert parsed["tenant"] == "acme"
        assert parsed["answer"] == 42

    def test_level_filtering_at_handler(self):
        stream = io.StringIO()
        log = EventLog(name="repro.test.levels")
        handler = __import__("logging").StreamHandler(stream)
        handler.setLevel(__import__("logging").WARNING)
        log.attach(handler)
        try:
            log.emit("quiet", level="info")
            log.emit("loud", level="warning")
        finally:
            log.detach(handler)
        events = [json.loads(line)["event"]
                  for line in stream.getvalue().splitlines()]
        assert events == ["loud"]

    def test_span_id_from_bound_tracer(self):
        log = EventLog(name="repro.test.spans")
        stream = io.StringIO()
        handler = log.attach(__import__("logging").StreamHandler(stream))
        tracer = Tracer()
        log.bind_tracer(tracer)
        try:
            with tracer.span("phase") as span:
                payload = log.emit("inside")
            outside = log.emit("outside")
        finally:
            log.detach(handler)
        assert payload["span"] == span.span_id
        assert "span" not in outside

    def test_configure_needs_exactly_one_destination(self):
        with pytest.raises(ValueError):
            configure_event_log()
        with pytest.raises(ValueError):
            configure_event_log(path="x", stream=io.StringIO())

    def test_configure_path_appends_json_lines(self, tmp_path):
        target = tmp_path / "events.jsonl"
        handler = configure_event_log(path=str(target))
        try:
            event_log().emit("file.ping", n=1)
            event_log().emit("file.ping", n=2)
        finally:
            event_log().detach(handler)
        lines = target.read_text().splitlines()
        assert [json.loads(line)["n"] for line in lines] == [1, 2]

    def test_global_log_disabled_by_default_after_detach(self):
        assert not event_log().enabled
        assert event_log().emit("nobody.listening") is None


# ----------------------------------------------------------------------
# phase_durations over drained records
# ----------------------------------------------------------------------


def _record(name, span_id, parent_id, duration, pid=1):
    return SpanRecord(name=name, span_id=span_id, parent_id=parent_id,
                      start=0.0, duration=duration, pid=pid, tid=1)


class TestPhaseDurations:
    def test_same_name_descendants_not_double_counted(self):
        records = [
            _record("evaluate", 1, None, 1.0),
            _record("evaluate", 2, 1, 0.4, pid=2),   # worker span
            _record("merge", 3, None, 0.1),
        ]
        totals = phase_durations(records)
        assert totals["evaluate"] == pytest.approx(1.0)
        assert totals["merge"] == pytest.approx(0.1)

    def test_matches_tracer_method(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert phase_durations(tracer.records()) \
            == tracer.phase_durations()


# ----------------------------------------------------------------------
# The flight recorder
# ----------------------------------------------------------------------


def _query_record(query_id="q-1", outcome="ok", queue_seconds=0.0,
                  run_seconds=0.01, **overrides):
    fields = dict(
        query_id=query_id, program="p", fingerprint="f",
        tenant="default", outcome=outcome, error=None, started=0.0,
        queue_seconds=queue_seconds, run_seconds=run_seconds,
        documents=1, tuples=1, deadline_budget=None,
    )
    fields.update(overrides)
    return QueryRecord(**fields)


class TestFlightRecorder:
    def test_ring_retains_last_capacity(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(5):
            recorder.record(_query_record(query_id=f"q-{index}"))
        assert [r.query_id for r in recorder.recent()] \
            == ["q-2", "q-3", "q-4"]
        assert recorder.get("q-0") is None
        assert recorder.get("q-4").query_id == "q-4"
        assert recorder.describe()["recorded"] == 5

    def test_slow_threshold_routes_to_slow_log(self):
        recorder = FlightRecorder(capacity=8, slow_threshold=0.1)
        fast = recorder.record(_query_record("fast", run_seconds=0.01))
        slow = recorder.record(_query_record("slow", run_seconds=0.5))
        assert not fast.slow and slow.slow
        assert [r.query_id for r in recorder.slow()] == ["slow"]

    def test_queue_wait_counts_toward_slowness(self):
        recorder = FlightRecorder(slow_threshold=0.1)
        record = recorder.record(_query_record(
            queue_seconds=0.09, run_seconds=0.02))
        assert record.slow

    def test_deadline_miss_always_kept(self):
        recorder = FlightRecorder(slow_threshold=100.0)
        miss = recorder.record(_query_record(
            "miss", outcome="DeadlineExceededError"))
        assert miss.slow
        assert recorder.get("miss") is not None
        assert [r.query_id for r in recorder.slow()] == ["miss"]

    def test_explain_resolved_only_for_slow_queries(self):
        calls = []

        def explain():
            calls.append(1)
            return {"plan": "here"}

        recorder = FlightRecorder(slow_threshold=0.1)
        recorder.record(_query_record("fast", run_seconds=0.01),
                        explain=explain)
        assert calls == []
        slow = recorder.record(_query_record("slow", run_seconds=0.5),
                               explain=explain)
        assert calls == [1]
        assert slow.explain == {"plan": "here"}

    def test_spans_populate_phases_pids_and_slow_tree(self):
        spans = [
            _record("evaluate", 1, None, 0.2, pid=11),
            _record("evaluate", 2, 1, 0.1, pid=22),
        ]
        recorder = FlightRecorder(slow_threshold=0.0)
        record = recorder.record(_query_record(), span_records=spans)
        assert record.phases["evaluate"] == pytest.approx(0.2)
        assert record.pids == (11, 22)
        assert [node["name"] for node in record.span_tree] \
            == ["evaluate", "evaluate"]

    def test_slow_log_outlives_the_ring(self):
        recorder = FlightRecorder(capacity=2, slow_threshold=0.1)
        recorder.record(_query_record("slow-0", run_seconds=1.0))
        for index in range(4):
            recorder.record(_query_record(f"fill-{index}",
                                          run_seconds=0.01))
        assert recorder.get("slow-0") is not None  # evicted from ring
        assert all(r.query_id != "slow-0" for r in recorder.recent())
        # ... but the slow log keeps only the last KEEP_SLOW.
        for index in range(1, KEEP_SLOW + 1):
            recorder.record(_query_record(f"slow-{index}",
                                          run_seconds=1.0))
        slow = recorder.slow()
        assert len(slow) == KEEP_SLOW == 64
        assert slow[0].query_id == "slow-1"
        assert recorder.get("slow-0") is None
        assert [r.query_id for r in recorder.slow(2)] \
            == [f"slow-{KEEP_SLOW - 1}", f"slow-{KEEP_SLOW}"]

    def test_to_dict_shapes(self):
        record = _query_record()
        summary = record.to_dict()
        assert "span_tree" not in summary
        full = record.to_dict(full=True)
        assert "span_tree" in full and "explain" in full
        json.dumps(full)  # JSON-serializable as served

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(slow_threshold=-1.0)
        recorder = FlightRecorder(slow_threshold=0.0)
        for index in range(3):
            recorder.record(_query_record(f"q-{index}"))
        for limit in (0, -1):
            with pytest.raises(ValueError):
                recorder.recent(limit)
            with pytest.raises(ValueError):
                recorder.slow(limit)
        assert len(recorder.recent()) == len(recorder.recent(3)) == 3


# ----------------------------------------------------------------------
# Service integration
# ----------------------------------------------------------------------


class TestServiceFlightRecording:
    def test_result_carries_record(self):
        flight = FlightRecorder(capacity=8)
        with make_service(flight=flight) as service:
            result = service.extract(DOCS, tenant="acme")
        record = result.record
        assert record is not None
        assert result.query_id == record.query_id
        assert record.outcome == "ok" and record.ok
        assert record.tenant == "acme"
        assert record.documents == len(DOCS)
        assert record.tuples == result.total_tuples
        assert record.kernel_tier is not None
        assert record.phases.get("evaluate", 0) > 0
        assert record.counters["documents"] == len(DOCS)
        assert service.flight_record(record.query_id) is not None

    def test_kernel_tier_builds_the_plan_report_once(self, monkeypatch):
        from repro.runtime.planner import CertifiedPlan

        built = []
        explain = CertifiedPlan.explain

        def counting(certified):
            built.append(id(certified))
            return explain(certified)

        monkeypatch.setattr(CertifiedPlan, "explain", counting)
        program = Program(a_run_extractor(), name="a-runs")
        engine = ExtractionEngine(registry())
        with ExtractionService(engine, program=program,
                               flight=FlightRecorder(capacity=16)) as service:
            tiers = [service.extract(DOCS).record.kernel_tier
                     for _ in range(5)]
        certified = engine.certify(program)
        assert len(built) == len(set(built)) == 1
        assert tiers == [explain(certified)["kernel_tier"]] * 5
        assert tiers[0] is not None

    def test_recording_off_means_no_record(self):
        with make_service() as service:
            result = service.extract(DOCS)
        assert result.record is None
        assert result.query_id is None

    def test_only_a_recorded_query_snapshots_the_stats(self, monkeypatch):
        snapshots = []
        stats = ExtractionEngine.stats

        def counted(engine):
            snapshots.append(engine)
            return stats(engine)

        monkeypatch.setattr(ExtractionEngine, "stats", counted)
        with make_service() as service:
            service.extract(DOCS)
        unrecorded = len(snapshots)
        with make_service(flight=FlightRecorder(capacity=8)) as service:
            service.extract(DOCS)
        # ``engine.run`` takes its own; a recorder adds its before and
        # after, and no recorder adds none.
        assert len(snapshots) - unrecorded == unrecorded + 2
        with make_service(flight=FlightRecorder(capacity=8)) as service:
            service.extract(DOCS)  # certify and warm the chunk cache
            before = service._engine.stats()
            record = service.extract(DOCS).record
            delta = service._engine.stats().since(before).snapshot()
        assert record.counters == delta
        assert record.counters["documents"] == len(DOCS)
        assert record.counters["chunk_cache_hits"] > 0

    def test_capture_spans_false_leaves_engine_untraced(self):
        flight = FlightRecorder(capacity=8, capture_spans=False)
        with make_service(flight=flight) as service:
            assert not service._engine.tracer.enabled
            result = service.extract(DOCS)
        assert result.record.phases == {}
        assert result.record.run_seconds > 0

    def test_slow_query_gets_span_tree_and_explain(self):
        flight = FlightRecorder(capacity=8, slow_threshold=0.0)
        with make_service(flight=flight) as service:
            service.extract(DOCS)
        (slow,) = service.slow_queries()
        assert slow["slow"]
        assert slow["span_tree"]
        assert {"certify", "split", "schedule"} \
            <= {node["name"] for node in slow["span_tree"]}
        assert slow["explain"]["plan"]["kernel_tier"] is not None
        assert "index" in slow["explain"]

    def test_explicit_query_id_respected(self):
        flight = FlightRecorder(capacity=8)
        with make_service(flight=flight) as service:
            result = service.extract(DOCS, query_id="req-abc")
        assert result.query_id == "req-abc"
        assert service.flight_record("req-abc") is not None

    def test_inflight_view(self):
        flight = FlightRecorder(capacity=8)
        with make_service(flight=flight) as service:
            service.extract(DOCS, tenant="acme")
            view = service.inflight()
        assert view["queue_depth"] == 0
        assert view["running"] is None
        assert view["tenants"]["acme"]["queries"] == 1
        assert view["flight"]["retained"] == 1
        json.dumps(view)

    def test_running_query_id_visible_during_execution(self):
        flight = FlightRecorder(capacity=8)
        seen = []

        class Peeking:
            def __init__(self, specification, service_ref):
                self.specification = specification
                self.service_ref = service_ref

            def evaluate(self, text):
                running = self.service_ref[0].inflight()["running"]
                seen.append(running["query_id"])
                return set(self.specification.evaluate(text))

        service_ref = []
        program = Program(Peeking(a_run_extractor(), service_ref),
                          name="peek")
        service = make_service(flight=flight, program=program)
        service_ref.append(service)
        with service:
            result = service.extract(DOCS)
            assert service.inflight()["running"] is None
        assert set(seen) == {result.query_id}

    def test_admission_and_completion_events(self, captured_events):
        flight = FlightRecorder(capacity=8)
        with make_service(flight=flight) as service:
            service.extract(DOCS, tenant="acme")
        events = [line["event"] for line in captured_events()]
        assert "service.admit" in events
        assert "service.complete" in events
        complete = next(line for line in captured_events()
                        if line["event"] == "service.complete")
        assert complete["tenant"] == "acme"
        assert complete["query_id"].startswith("q-")
        assert complete["tuples"] > 0


class TestDeadlineMissObservability:
    """The cross-process satellite: a workers=2 deadline miss produces
    a structured log line, a slow flight record with a multi-pid span
    tree, and an engine/pool that keep serving."""

    @pytest.fixture
    def missed(self, captured_events):
        flight = FlightRecorder(capacity=16, slow_threshold=None)
        program = Program(SlowSpanner(a_run_extractor(), delay=0.05),
                          name="molasses")
        service = make_service(workers=2, batch_size=2, flight=flight,
                               program=program)
        with service:
            # Warm up: build the traced pool and certify, off-budget.
            service.extract(["aa ab", "ab aa"])
            # Every token distinct so chunk dedup can't shrink the
            # workload: 48 unique chunks at 0.05 s each across 2
            # workers is ~1.2 s of evaluation against a 0.3 s budget.
            unique = [" ".join("a" * (3 * i + j + 1) for j in range(3))
                      for i in range(16)]
            with pytest.raises(DeadlineExceededError):
                service.extract(unique, tenant="dm", deadline=0.3)
            # (c) unchanged engine/pool health: the same service keeps
            # answering correctly after the miss.
            follow_up = service.extract(DOCS, tenant="dm")
            yield service, follow_up, captured_events

    def test_structured_log_line(self, missed):
        _service, _follow_up, events = missed
        (line,) = [line for line in events()
                   if line["event"] == "service.deadline_miss"]
        assert line["tenant"] == "dm"
        assert line["error"] == "DeadlineExceededError"
        assert line["level"] == "warning"
        assert line["slow"] is True
        assert line["run_seconds"] > 0

    def test_slow_record_has_multi_pid_span_tree(self, missed):
        service, _follow_up, _events = missed
        records = [record for record in service.slow_queries()
                   if record["outcome"] == "DeadlineExceededError"]
        (record,) = records
        assert record["deadline_budget"] == pytest.approx(0.3)
        assert record["phases"].get("evaluate", 0) > 0
        pids = {node["pid"] for node in record["span_tree"]}
        assert len(pids) >= 2          # dispatcher + pool worker(s)
        assert set(record["pids"]) == pids

    def test_service_health_after_miss(self, missed):
        service, follow_up, _events = missed
        assert follow_up.total_tuples > 0
        assert follow_up.record.outcome == "ok"
        stats = service.inflight()["tenants"]["dm"]
        assert stats["deadline_misses"] == 1
        assert stats["queries"] == 2


# ----------------------------------------------------------------------
# HTTP /debug endpoints and request ids
# ----------------------------------------------------------------------


@pytest.fixture
def debug_http_service():
    flight = FlightRecorder(capacity=16, slow_threshold=0.0)
    service = make_service(flight=flight, max_queue=16)
    server = ServiceHTTPServer(service)
    host, port = service.run_coroutine(server.start(port=0)).result(10)
    yield f"http://{host}:{port}", service
    service.run_coroutine(server.stop()).result(10)
    service.close()


def _post(url, payload, timeout=30):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response), response.headers


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.load(response), response.headers


class TestDebugEndpoints:
    def test_request_id_header_on_success(self, debug_http_service):
        base, _service = debug_http_service
        status, payload, headers = _post(
            base + "/extract", {"texts": list(DOCS)})
        assert status == 200
        assert headers["X-Repro-Request-Id"].startswith("q-")

    def test_extract_id_matches_flight_record(self, debug_http_service):
        base, service = debug_http_service
        _status, _payload, headers = _post(
            base + "/extract", {"texts": list(DOCS), "tenant": "web"})
        request_id = headers["X-Repro-Request-Id"]
        status, record, _ = _get(base + f"/debug/queries/{request_id}")
        assert status == 200
        assert record["query_id"] == request_id
        assert record["tenant"] == "web"
        assert record["outcome"] == "ok"

    def test_error_carries_request_id(self, debug_http_service,
                                      captured_events):
        base, _service = debug_http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base + "/extract",
                  {"texts": ["aa ab"], "deadline_ms": 0})
        assert info.value.code == 504
        header_id = info.value.headers["X-Repro-Request-Id"]
        body = json.load(info.value)
        assert body["request_id"] == header_id
        logged = [line for line in captured_events()
                  if line["event"] == "http.error"]
        assert any(line["request_id"] == header_id
                   and line["status"] == 504 for line in logged)

    def test_debug_queries_lists_summaries(self, debug_http_service):
        base, _service = debug_http_service
        _post(base + "/extract", {"texts": list(DOCS)})
        status, payload, _ = _get(base + "/debug/queries")
        assert status == 200
        assert payload["recording"] is True
        (query,) = payload["queries"]
        assert query["outcome"] == "ok"
        assert "span_tree" not in query  # summaries stay light

    def test_debug_slow_returns_full_records(self, debug_http_service):
        base, _service = debug_http_service
        _post(base + "/extract", {"texts": list(DOCS)})
        _status, payload, _ = _get(base + "/debug/slow")
        (record,) = payload["slow"]   # slow_threshold=0: everything
        assert record["span_tree"]
        assert record["explain"]

    def test_debug_unknown_query_is_404(self, debug_http_service):
        base, _service = debug_http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base + "/debug/queries/q-nope")
        assert info.value.code == 404
        assert json.load(info.value)["error"] == "unknown_query"
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base + "/debug/profile")
        assert info.value.code == 404
        assert json.load(info.value)["error"] == "not_found"

    def test_debug_inflight(self, debug_http_service):
        base, _service = debug_http_service
        _post(base + "/extract", {"texts": list(DOCS), "tenant": "web"})
        _status, payload, _ = _get(base + "/debug/inflight")
        assert payload["queue_depth"] == 0
        assert payload["tenants"]["web"]["queries"] == 1
        assert payload["flight"]["capacity"] == 16

    def test_debug_limit_validation(self, debug_http_service):
        base, _service = debug_http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base + "/debug/queries?limit=many")
        assert info.value.code == 400
        for route in ("/debug/queries", "/debug/slow"):
            for limit in (0, -1):
                with pytest.raises(urllib.error.HTTPError) as info:
                    _get(base + f"{route}?limit={limit}")
                assert info.value.code == 400
                assert json.load(info.value)["error"] == "bad_request"


# ----------------------------------------------------------------------
# The fluent route
# ----------------------------------------------------------------------


class TestFluentRecorded:
    def test_recorded_serve_round_trip(self):
        spanner = Spanner.regex(PATTERN, TXT)
        service = Q(spanner).split_by("tokens") \
            .recorded(capacity=4, slow_ms=0.0).serve()
        with service:
            result = service.extract(DOCS)
        assert result.record is not None
        assert result.record.slow      # slow_ms=0 keeps everything
        assert service.flight.capacity == 4

    def test_recorded_is_immutable_evolution(self):
        spanner = Spanner.regex(PATTERN, TXT)
        base = Q(spanner).split_by("tokens")
        recorded = base.recorded()
        assert base is not recorded
        assert recorded._flight is not None
        service = base.serve()
        try:
            assert service.flight is None
        finally:
            service.close()
