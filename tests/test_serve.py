"""Tests for the resident serving layer (:mod:`repro.serve`) and the
deadline/admission semantics it builds on."""

import asyncio
import concurrent.futures
import contextlib
import json
import multiprocessing
import multiprocessing.process
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core.spans import Span, SpanTuple
from repro.engine import Corpus, Deadline, ExtractionEngine, Program, \
    as_deadline
from repro.engine.deadline import NEVER
from repro.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceThreadError,
)
from repro.query import Q, Spanner
from repro.runtime import FastSeparatorSplitter, RegisteredSplitter, \
    evaluate_whole
from repro.serve import ExtractionService, ServiceHTTPServer, serve_http
from repro.serve import http as serve_http_module
from repro.serve.service import ServiceResult
from repro.spanners.regex_formulas import compile_regex_formula
from repro.splitters.builders import token_splitter
from tests.reference import reference_result_payload

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
    """An executable whose per-chunk evaluation takes ``delay`` seconds
    — what makes wall-clock deadlines fire *mid-run* reliably."""

    def __init__(self, specification, delay=0.02):
        self.specification = specification
        self.delay = delay

    def evaluate(self, text):
        time.sleep(self.delay)
        return set(self.specification.evaluate(text))


class CountingDeadline(Deadline):
    """Expires after a fixed number of cooperative checks — the
    timing-independent way to stop an engine run at an exact batch
    boundary."""

    def __init__(self, allowed_checks):
        super().__init__()
        self.checks = 0
        self.allowed = allowed_checks

    def check(self):
        self.checks += 1
        if self.checks > self.allowed:
            raise DeadlineExceededError(elapsed=self.elapsed(),
                                        budget=0.0)


def make_service(workers=0, max_queue=8, default_deadline=None,
                 batch_size=2, program=None):
    engine = ExtractionEngine(registry(), workers=workers,
                              batch_size=batch_size)
    if program is None:
        program = Program(a_run_extractor(), name="a-runs")
    return ExtractionService(engine, program=program,
                             max_queue=max_queue,
                             default_deadline=default_deadline)


def _submit(service, corpus, program=None, **kwargs):
    """One query as a future, as a thread that must not block issues
    it."""
    return service.run_coroutine(
        service.extract_async(corpus, program, **kwargs))


def reference_results(docs=DOCS):
    engine = ExtractionEngine(registry())
    return engine.run(Corpus.from_texts(list(docs)),
                      Program(a_run_extractor(), name="ref")) \
        .by_document


# ----------------------------------------------------------------------
# Deadline objects
# ----------------------------------------------------------------------


class TestDeadline:
    def test_after_none_never_expires(self):
        deadline = Deadline.after(None)
        assert deadline is NEVER
        assert not deadline.expired()
        assert deadline.remaining() is None
        deadline.check()  # no-op

    def test_expired_budget_raises_with_context(self):
        deadline = Deadline.after(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError) as info:
            deadline.check()
        assert info.value.budget == 0.0
        assert info.value.elapsed >= 0.0

    def test_remaining_counts_down(self):
        deadline = Deadline.after(60.0)
        assert 0 < deadline.remaining() <= 60.0
        assert not deadline.expired()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_as_deadline_coercions(self):
        assert as_deadline(None) is NEVER
        deadline = Deadline.after(5.0)
        assert as_deadline(deadline) is deadline
        assert isinstance(as_deadline(0.5), Deadline)
        with pytest.raises(TypeError):
            as_deadline("soon")


# ----------------------------------------------------------------------
# Engine-level deadline semantics
# ----------------------------------------------------------------------


class TestEngineDeadlines:
    def test_run_without_deadline_unchanged(self):
        engine = ExtractionEngine(registry())
        result = engine.run(DOCS, Program(a_run_extractor()))
        assert result.by_document == reference_results()

    def test_deadline_fires_mid_run_engine_stays_usable(self):
        """The acceptance scenario: a mid-run expiry raises the typed
        error, and the very next query on the same engine succeeds
        with full, correct results."""
        engine = ExtractionEngine(registry(), batch_size=1)
        program = Program(a_run_extractor(), name="a-runs")
        corpus = Corpus.from_texts([f"a{'b' * i} aa" for i in range(12)])
        with pytest.raises(DeadlineExceededError):
            for _ in engine.run_iter(corpus, program,
                                     deadline=CountingDeadline(5)):
                pass
        # Partial work is cached, nothing is poisoned: a fresh full
        # run completes and agrees with an independent engine.
        complete = engine.run(corpus, program)
        fresh = ExtractionEngine(registry()).run(
            corpus, Program(a_run_extractor(), name="ref"))
        assert complete.by_document == fresh.by_document

    def test_deadline_preserves_partial_chunk_cache(self):
        engine = ExtractionEngine(registry(), batch_size=1)
        program = Program(a_run_extractor(), name="a-runs")
        corpus = Corpus.from_texts([f"a{'b' * i} aa" for i in range(10)])
        deadline = CountingDeadline(8)
        with pytest.raises(DeadlineExceededError):
            for _ in engine.run_iter(corpus, program, deadline=deadline):
                pass
        # Every check before the cut-off was a completed batch
        # boundary; the chunks those batches evaluated stay cached.
        assert deadline.checks == 9
        assert len(engine.chunk_cache) > 0

    def test_wall_clock_deadline_fires(self):
        engine = ExtractionEngine(registry(), batch_size=1)
        specification = a_run_extractor()
        slow = Program(SlowSpanner(specification, delay=0.02),
                       specification, name="slow")
        corpus = Corpus.from_texts([f"a{'b' * i} aa" for i in range(12)])
        with pytest.raises(DeadlineExceededError) as info:
            engine.run(corpus, slow, deadline=0.05)
        assert info.value.budget == pytest.approx(0.05)
        assert info.value.elapsed >= 0.05

    def test_pool_survives_deadline_and_runner_swap(self, monkeypatch):
        """Deadline abandonment plus a runner swap must not terminate
        the pool: the swap drains gracefully (in-flight batches
        finish), a worker is terminated only on hard shutdown, and
        both programs keep producing correct results afterward."""
        terminations = []
        original_terminate = multiprocessing.process.BaseProcess.terminate
        monkeypatch.setattr(
            multiprocessing.process.BaseProcess, "terminate",
            lambda process: (terminations.append(process.pid),
                             original_terminate(process))[1])

        engine = ExtractionEngine(registry(), workers=2, batch_size=2)
        try:
            spec_a = a_run_extractor()
            slow_a = Program(SlowSpanner(spec_a, delay=0.03),
                             spec_a, name="slow-a")
            spec_b = compile_regex_formula(".*( )y{b+}( ).*|y{b+}( ).*"
                                           "|.*( )y{b+}|y{b+}", TXT)
            program_b = Program(spec_b, name="b-runs")
            corpus = Corpus.from_texts(
                [f"a{'b' * (i % 5)} aa bb" for i in range(16)])
            # >=0.1s of slow chunk work against a 0.05s budget: the
            # deadline is guaranteed to fire while pool batches are in
            # flight, abandoning the pool's result iterator.
            with pytest.raises(DeadlineExceededError):
                engine.run(corpus, slow_a, deadline=0.05)
            # Swap runners mid-life: the abandoned A batches drain
            # gracefully, then B runs on a fresh pool.
            result_b = engine.run(corpus, program_b)
            reference_b = ExtractionEngine(registry()).run(
                corpus, Program(spec_b, name="ref-b"))
            assert result_b.by_document == reference_b.by_document
            # And back to A, completing the interrupted workload.
            result_a = engine.run(corpus, slow_a)
            reference_a = ExtractionEngine(registry()).run(
                corpus, Program(spec_a, name="ref-a"))
            assert result_a.by_document == reference_a.by_document
            assert not terminations, \
                "runner swaps must drain, not terminate"
        finally:
            engine.close()
        assert terminations, "close() is the hard-shutdown path"

    def test_pool_survives_deadline_and_close_leaves_no_child(self):
        baseline = set(multiprocessing.active_children())
        engine = ExtractionEngine(registry(), workers=2, batch_size=2)
        try:
            specification = a_run_extractor()
            slow = Program(SlowSpanner(specification, delay=0.03),
                           specification, name="slow")
            corpus = Corpus.from_texts([f"a{'b' * i} aa"
                                        for i in range(8)])
            with pytest.raises(DeadlineExceededError):
                engine.run(corpus, slow, deadline=0.05)
            workers = set(multiprocessing.active_children()) - baseline
            assert len(workers) == 2
            # Same runner object: the pool is reused, and the rerun
            # completes correctly.
            result = engine.run(corpus, slow)
            assert set(multiprocessing.active_children()) - baseline \
                == workers
            reference = ExtractionEngine(registry()).run(
                corpus, Program(specification, name="ref"))
            assert result.by_document == reference.by_document
        finally:
            engine.close()
        assert set(multiprocessing.active_children()) <= baseline


# ----------------------------------------------------------------------
# Service semantics
# ----------------------------------------------------------------------


class TestExtractionService:
    def test_extract_matches_engine(self):
        service = make_service()
        with service:
            result = service.extract(DOCS)
        assert result.by_document == reference_results()
        assert result.total_tuples == sum(
            len(t) for t in reference_results().values())

    def test_deadline_miss_counted_and_engine_reusable(self):
        specification = a_run_extractor()
        slow = Program(SlowSpanner(specification, delay=0.02),
                       specification, name="slow")
        service = make_service(batch_size=1, program=slow)
        corpus = [f"a{'b' * i} aa" for i in range(12)]
        with service:
            with pytest.raises(DeadlineExceededError):
                service.extract(corpus, deadline=0.05, tenant="acme")
            # The shared engine is not poisoned: the same service
            # answers the next query, and the miss is accounted.
            result = service.extract(
                DOCS, tenant="acme",
                program=Program(a_run_extractor(), name="a-runs"))
            stats = service.inflight()["tenants"]["acme"]
            latency = service.metrics.histogram("service.latency_seconds",
                                                tenant="acme")
        assert result.by_document == reference_results()
        assert stats["deadline_misses"] == 1
        assert stats["queries"] == 2
        assert latency.quantile(0.95) > 0

    def test_admission_rejects_when_queue_full(self):
        specification = a_run_extractor()
        slow = Program(SlowSpanner(specification, delay=0.05),
                       specification, name="slow")
        service = make_service(max_queue=1, batch_size=1, program=slow)
        # Ten distinct single-chunk documents: ~0.5s of dispatcher
        # work, plenty of time to observe a full queue.
        blocker_corpus = [f"a{'b' * i}" for i in range(10)]
        with service:
            blocker = _submit(service, blocker_corpus, tenant="acme")
            futures = [_submit(service, ["ab"], tenant="acme")
                       for _ in range(50)]
            blocker.result(timeout=30)
            refused = []
            for future in futures:
                try:
                    future.result(timeout=30)
                except ServiceOverloadedError as error:
                    refused.append(error.capacity)
            stats = service.inflight()["tenants"]["acme"]
        assert refused and set(refused) == {1}
        assert stats["rejections"] == len(refused)

    def test_concurrent_queries_share_one_certification(self):
        service = make_service(max_queue=32)
        program = Program(a_run_extractor(), name="shared")
        barrier = threading.Barrier(8)
        futures = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            future = _submit(service, DOCS, program)
            with lock:
                futures.append(future)

        with service:
            threads = [threading.Thread(target=submit)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=30) for future in futures]
            plan_cache = service._engine.plan_cache
            assert len(results) == 8
            for result in results:
                assert result.by_document == reference_results()
            assert plan_cache.misses == 1
            assert plan_cache.hits == 7

    def test_concurrent_identical_corpora_cache_accounting(self):
        """Serial dispatch keeps ``hit_rate``/``record_batch_hit``
        accounting exactly what a sequential client would see: the
        first query pays every unique chunk, later ones are all hits."""
        service = make_service(max_queue=32)
        docs = ["aa ab a.", "aa ab a.", "ab b aa"]
        with service:
            futures = [_submit(service, docs) for _ in range(4)]
            for future in futures:
                future.result(timeout=30)
            cache = service._engine.chunk_cache
            unique = len({chunk for doc in docs
                          for chunk in doc.split(" ")})
            instances = sum(len(doc.split(" ")) for doc in docs) * 4
            assert cache.misses == unique
            assert cache.hits == instances - unique
            assert cache.hit_rate == pytest.approx(
                (instances - unique) / instances)

    def test_submit_after_close_raises(self):
        service = make_service()
        with service:
            service.extract(DOCS)
        with pytest.raises(ServiceClosedError):
            service.extract(DOCS)
        with pytest.raises(ServiceClosedError):
            _submit(service, DOCS)

    def test_async_front_end(self):
        service = make_service()

        async def main():
            return await asyncio.gather(
                service.extract_async(DOCS, tenant="a"),
                service.extract_async(DOCS, tenant="b"),
            )

        with service:
            first, second = asyncio.run(main())
        assert first.by_document == reference_results()
        assert second.by_document == reference_results()
        assert first.queue_seconds >= 0.0
        assert first.run_seconds >= 0.0

    def test_latency_without_deadline_is_the_query_s_own(self):
        """A query without a deadline carries the shared ``NEVER``,
        created at import: its latency must not count from there."""
        time.sleep(max(0.0, 0.5 - NEVER.elapsed()))
        service = make_service()
        with service:
            result = service.extract(DOCS, tenant="undated")
            latency = service.metrics.histogram(
                "service.latency_seconds", tenant="undated")
        assert latency.count == 1
        assert latency.sum <= (result.queue_seconds + result.run_seconds
                               + 0.05)

    def test_prometheus_exposition_labels_tenants(self):
        service = make_service()
        with service:
            service.extract(DOCS, tenant="acme")
            service.extract(DOCS, tenant="zeta")
            text = service.to_prometheus()
        assert 'tenant="acme"' in text
        assert 'tenant="zeta"' in text
        assert "service_queries" in text
        assert "service_queue_wait_seconds" in text

    def test_query_serve_entry(self):
        spanner = Spanner.regex(PATTERN, TXT, name="a-runs")
        service = Q(spanner).split_by("tokens").serve(max_queue=3)
        assert isinstance(service, ExtractionService)
        assert service.max_queue == 3
        with service:
            result = service.extract(DOCS)
        assert result.by_document == reference_results()


# ----------------------------------------------------------------------
# The HTTP endpoint
# ----------------------------------------------------------------------


@contextlib.contextmanager
def serving(service, server_class=ServiceHTTPServer, **kwargs):
    """``service`` behind an HTTP endpoint bound on its own loop (what
    ``serve_http`` does); yields ``(base_url, server)``."""
    server = server_class(service, **kwargs)
    host, port = service.run_coroutine(server.start(port=0)).result(10)
    try:
        yield f"http://{host}:{port}", server
    finally:
        if not service.closed:
            service.run_coroutine(server.stop()).result(10)
        service.close()


@pytest.fixture
def http_service():
    with serving(make_service(max_queue=16)) as (base, _server):
        yield base, _server.service


def _post(url, payload, timeout=30):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


class TestHTTPEndpoint:
    def test_extract_round_trip(self, http_service):
        base, _service = http_service
        status, payload = _post(base + "/extract",
                                {"texts": list(DOCS), "tenant": "t1"})
        assert status == 200
        reference = reference_results()
        assert payload["tuples"] == sum(
            len(t) for t in reference.values())
        assert set(payload["documents"]) == set(reference)
        # Span tuples survive the JSON round trip positionally.
        for doc_id, tuples in reference.items():
            expected = sorted(
                sorted((str(v), [s.begin, s.end])
                       for v, s in tup.items())
                for tup in tuples
            )
            got = sorted(
                sorted((var, bounds) for var, bounds in row.items())
                for row in payload["documents"][doc_id]
            )
            assert got == expected

    def test_deadline_maps_to_504(self, http_service):
        base, _service = http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base + "/extract",
                  {"texts": ["aa ab"], "deadline_ms": 0})
        assert info.value.code == 504
        assert json.load(info.value)["error"] == "deadline_exceeded"

    def test_bad_request_maps_to_400(self, http_service):
        base, _service = http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base + "/extract", {"tenant": "t1"})
        assert info.value.code == 400

    def test_fixed_program_rejects_adhoc_patterns(self, http_service):
        base, _service = http_service
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base + "/extract",
                  {"texts": ["aa"], "pattern": "y{a+}"})
        assert info.value.code == 400

    def test_metrics_and_health(self, http_service):
        base, _service = http_service
        _post(base + "/extract", {"texts": ["aa ab"], "tenant": "m1"})
        with urllib.request.urlopen(base + "/metrics",
                                    timeout=30) as response:
            text = response.read().decode("utf-8")
        assert 'tenant="m1"' in text
        with urllib.request.urlopen(base + "/healthz",
                                    timeout=30) as response:
            assert json.load(response)["status"] == "ok"

    def test_concurrent_http_queries(self, http_service):
        base, service = http_service
        outcomes = []
        lock = threading.Lock()

        def call(deadline_ms=None):
            payload = {"texts": list(DOCS), "tenant": "swarm"}
            if deadline_ms is not None:
                payload["deadline_ms"] = deadline_ms
            try:
                status = _post(base + "/extract", payload)[0]
            except urllib.error.HTTPError as error:
                status = error.code
            with lock:
                outcomes.append(status)

        threads = [threading.Thread(target=call) for _ in range(6)]
        threads.append(threading.Thread(target=call, args=(0,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(200) == 6
        assert outcomes.count(504) == 1
        stats = service.inflight()["tenants"]["swarm"]
        assert stats["queries"] == 7
        assert stats["deadline_misses"] == 1


def _connect(base, timeout=10):
    host, port = base[len("http://"):].split(":")
    return socket.create_connection((host, int(port)), timeout=timeout)


def _raw_exchange(base, request, step=None):
    """Send ``request`` bytes — ``step`` bytes per segment, with the
    socket's coalescing off, when given — and read until the server
    closes the connection (a socket timeout fails the caller: no EOF
    came)."""
    with _connect(base) as sock:
        if step is None:
            sock.sendall(request)
        else:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for start in range(0, len(request), step):
                sock.sendall(request[start:start + step])
                time.sleep(0.0005)
        return _read_to_eof(sock)


def _read_to_eof(sock):
    parts = []
    while True:
        data = sock.recv(65536)
        if not data:
            return b"".join(parts)
        parts.append(data)


class TestOneResponsePerConnection:
    """Clients (the ledger's included) read a response until EOF: every
    response says ``Connection: close`` and the server then closes,
    even when the request asked to keep the connection alive."""

    BODY = json.dumps({"texts": ["aa ab a."]}).encode("utf-8")

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
        b"Connection: keep-alive\r\n\r\n",
        b"POST /extract HTTP/1.1\r\nHost: t\r\nConnection: keep-alive\r\n"
        b"Content-Length: %d\r\n\r\n" % len(BODY) + BODY,
        b"GET /nowhere HTTP/1.1\r\nHost: t\r\n"
        b"Connection: keep-alive\r\n\r\n",
        b"GET /metrics HTTP/1.1\r\n\r\n",
    ], ids=["healthz", "extract", "not-found", "metrics"])
    def test_connection_close_then_eof(self, http_service, request_bytes):
        base, _service = http_service
        raw = _raw_exchange(base, request_bytes)
        head, _, body = raw.partition(b"\r\n\r\n")
        headers = head.split(b"\r\n")
        assert headers[0].startswith(b"HTTP/1.1 ")
        assert b"Connection: close" in headers[1:]
        length = next(int(line.split(b":")[1]) for line in headers
                      if line.lower().startswith(b"content-length:"))
        assert len(body) == length


def _split_response(raw):
    """``(status, headers, JSON body)`` of one raw response."""
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return int(status_line.split()[1]), headers, json.loads(body)


def _post_bytes(body, extra=b""):
    return (b"POST /extract HTTP/1.1\r\nHost: t\r\n" + extra
            + b"Content-Length: %d\r\n\r\n" % len(body) + body)


class TestOneStepHeadReader:
    """The head is read in one ``readuntil`` up to CRLF CRLF and
    parsed in memory; the body in one ``readexactly``.  Whatever the
    segmentation, and however the head is malformed, every connection
    gets one answer carrying its request id."""

    BODY = TestOneResponsePerConnection.BODY

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
        _post_bytes(BODY),
    ], ids=["healthz", "extract"])
    def test_byte_at_a_time_matches_one_shot(self, http_service,
                                             request_bytes):
        base, _service = http_service
        answers = []
        for step in (None, 1):
            status, headers, body = _split_response(
                _raw_exchange(base, request_bytes, step=step))
            assert "X-Repro-Request-Id" in headers
            for timing in ("queue_seconds", "run_seconds"):
                body.pop(timing, None)
            answers.append((status, body))
        assert answers[0] == answers[1]
        assert answers[0][0] == 200

    @pytest.mark.parametrize("head, status, detail", [
        (b"POST /extract HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (serve_http_module.MAX_BODY_BYTES + 1), 413, None),
        (b"GARBAGE\r\n\r\n", 400, "malformed request line"),
        (b"\r\n\r\n", 400, "malformed request line"),
        (b"POST /extract HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
         400, None),
        (b"POST /extract HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
         400, "negative Content-Length"),
    ], ids=["oversized", "malformed-line", "empty-line",
            "non-integer-length", "negative-length"])
    def test_rejected_head(self, http_service, head, status, detail):
        # Only the head is sent: the answer must not wait for a body.
        base, _service = http_service
        got, headers, body = _split_response(_raw_exchange(base, head))
        assert got == status
        assert body["request_id"] == headers["X-Repro-Request-Id"]
        if detail is not None:
            assert body["detail"] == detail

    def test_client_gone_mid_head_then_next_request(self, http_service):
        base, _service = http_service
        with _connect(base) as sock:
            sock.sendall(b"POST /extract HTTP/1.1\r\nContent-Le")
        status, _headers, body = _split_response(
            _raw_exchange(base, _post_bytes(self.BODY)))
        assert status == 200 and body["tuples"] > 0

    def test_expect_100_continue_is_answered(self, http_service):
        # curl sends ``Expect: 100-continue`` with bodies over 1 MiB
        # and waits a second for the interim answer before it sends
        # the body anyway.
        base, _service = http_service
        request = _post_bytes(self.BODY, b"Expect: 100-continue\r\n")
        head, _, body = request.partition(b"\r\n\r\n")
        with _connect(base, timeout=2) as sock:
            sock.sendall(head + b"\r\n\r\n")
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                data = sock.recv(1)       # socket.timeout: no answer
                assert data, interim
                interim += data
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(10)
            sock.sendall(body)
            raw = _read_to_eof(sock)
        status, _headers, payload = _split_response(raw)
        assert status == 200 and payload["tuples"] > 0


@st.composite
def service_results(draw):
    """A :class:`ServiceResult` with 0-3 variables named with quotes,
    backslashes, control characters and non-ASCII text (distinct under
    ``str``), empty documents, unicode ids and tenant, and timings from
    0.0 and 1e-07 up to large values."""
    names = st.text(alphabet=st.sampled_from(
        ['"', "\\", "\n", "\x00", "\x1f", "%", "a", "é", "☃",
         "\U0001f600"]), max_size=4)
    variables = draw(st.lists(names, max_size=3, unique_by=str))
    spans = st.tuples(st.integers(1, 50), st.integers(0, 9)).map(
        lambda pair: Span(pair[0], pair[0] + pair[1]))
    rows = st.fixed_dictionaries({v: spans for v in variables})
    by_document = draw(st.dictionaries(
        st.text(max_size=6),
        st.lists(rows, max_size=5).map(
            lambda dicts: {SpanTuple(row) for row in dicts}),
        max_size=4))
    timings = (st.sampled_from([0.0, 1e-07, 0.5, 1e12, 3.0e300])
               | st.floats(0, 1e9))
    return ServiceResult(by_document, draw(st.text(max_size=6)),
                         draw(timings), draw(timings))


@given(service_results())
def test_result_body_equals_dumps_over_dicts(result):
    # The bytes json.dumps wrote over the dicts the body was built
    # from before it was written from the tuples' columns.
    assert serve_http_module._result_body(result) == json.dumps(
        reference_result_payload(result),
        ensure_ascii=False).encode("utf-8")


class TestAdhocPrograms:
    def test_repeated_pattern_reuses_its_program(self, monkeypatch):
        built = []

        def query_factory(pattern, alphabet):
            built.append(pattern)
            return Program.from_query(
                Spanner.regex(pattern, alphabet or "ab ."))

        monkeypatch.setattr(serve_http_module, "MAX_ADHOC_PROGRAMS", 2)
        service = make_service()
        with serving(service, query_factory=query_factory) as (base, _s):
            request = {"texts": list(DOCS), "pattern": PATTERN}
            _status, first = _post(base + "/extract", request)
            counted = ("engine.certifications", "engine.artifacts_compiled")
            before = [service.metrics.value(name) for name in counted]
            _status, second = _post(base + "/extract", request)
            assert [service.metrics.value(name) for name in counted] \
                == before
            for key in ("documents", "tuples"):
                assert second[key] == first[key]
            assert first["documents"] == _post(
                base + "/extract", {"texts": list(DOCS)})[1]["documents"]
            # Bounded, least recently used out first: with room for
            # two, the hit on PATTERN makes "y{a}" evict "y{b+}", whose
            # rebuild then evicts PATTERN.
            for pattern in ("y{b+}", PATTERN, "y{a}", "y{b+}", PATTERN):
                _post(base + "/extract", {"texts": ["ab"],
                                          "pattern": pattern})
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(base + "/extract", {"texts": ["ab"],
                                          "pattern": "y{a}",
                                          "alphabet": ["a", "b"]})
            assert info.value.code == 400
        assert built == [PATTERN, "y{b+}", "y{a}", "y{b+}", PATTERN]


# ----------------------------------------------------------------------
# One thread serves a request
# ----------------------------------------------------------------------


class SpyRunner:
    """Evaluates like ``specification`` and records, per chunk, the
    thread and the service's current query; counts chunks evaluated
    while another evaluation was in progress."""

    def __init__(self, specification, service_ref):
        self.specification = specification
        self.service_ref = service_ref
        self.lock = threading.Lock()
        self.active = 0
        self.overlaps = 0
        self.calls = []

    def evaluate(self, text):
        with self.lock:
            self.active += 1
            self.overlaps += self.active > 1
        try:
            running = self.service_ref[0].inflight()["running"]
            self.calls.append((threading.get_ident(),
                               running and running["query_id"]))
            time.sleep(0.0005)   # the window an overlap would need
            return set(self.specification.evaluate(text))
        finally:
            with self.lock:
                self.active -= 1


class ParseRecordingServer(ServiceHTTPServer):
    """Remembers the thread each request was read and parsed on."""

    parsed_on = set()

    async def _read_request(self, reader, writer):
        self.parsed_on.add(threading.get_ident())
        return await super()._read_request(reader, writer)


def _unique_documents(start, count):
    """Documents whose chunks nothing else uses (no cache hits)."""
    return [f"{'a' * n} {'a' * n}b." for n in range(start, start + count)]


def _service_thread(service):
    async def ident():
        return threading.get_ident()
    return service.run_coroutine(ident()).result(10)


def _await_queue_depth(service, depth, running=False):
    """Poll until ``depth`` callers wait for the engine (and, with
    ``running``, a query holds it)."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        view = service.inflight()
        if view["queue_depth"] == depth and (
                not running or view["running"] is not None):
            return
        time.sleep(0.002)
    raise AssertionError(f"queue depth never reached {depth}")


def _in_thread(call):
    """``call()`` on a thread of its own, as a future."""
    future = concurrent.futures.Future()

    def run():
        try:
            future.set_result(call())
        except BaseException as error:
            future.set_exception(error)

    threading.Thread(target=run, daemon=True).start()
    return future


def _spied_service():
    """A service whose default program records its runs in a
    :class:`SpyRunner`, plus a :class:`SlowSpanner` for long runs."""
    specification = a_run_extractor()
    service_ref = []
    spy = SpyRunner(specification, service_ref)
    service = make_service(
        max_queue=8, batch_size=1,
        program=Program(spy, specification, name="spy"))
    service_ref.append(service)
    return service, spy, SlowSpanner(specification, delay=0.01)


def _queue_behind_a_long_run(service, slow):
    """Start a long ``slow`` run (query id ``long``), then queue
    behind it, one at a time: a thread's ``extract`` (``thread``), a
    foreign loop's ``extract_async`` (``loop``) and a
    ``reopen_index`` (``reopen``).  Returns their futures by name."""
    futures = {"long": _submit(
        service, _unique_documents(1, 200),
        Program(slow, slow.specification, name="slow"), query_id="long")}
    _await_queue_depth(service, 0, running=True)
    waiters = {
        "thread": lambda: _in_thread(lambda: service.extract(
            _unique_documents(300, 2), query_id="thread")),
        "loop": lambda: _in_thread(lambda: asyncio.run(
            service.extract_async(_unique_documents(310, 2),
                                  query_id="loop"))),
        "reopen": service.reopen_index,
    }
    for depth, (name, issue) in enumerate(waiters.items(), 1):
        futures[name] = issue()
        _await_queue_depth(service, depth)
    return futures


class TestOneThreadService:
    def test_mixed_callers_match_the_oracle_and_never_overlap(self):
        """HTTP clients, extract() threads and extract_async on a
        foreign loop, all at once: every result is evaluate_whole's,
        engine runs never interleave, and HTTP-admitted queries run on
        the thread that parsed them."""
        specification = a_run_extractor()
        service_ref = []
        spy = SpyRunner(specification, service_ref)
        service = make_service(
            max_queue=64, batch_size=1,
            program=Program(spy, specification, name="spy"))
        service_ref.append(service)
        ParseRecordingServer.parsed_on = set()
        expected, got, http_ids, errors = {}, {}, set(), []
        lock = threading.Lock()
        counter = iter(range(1, 10_000, 3))

        def documents():
            with lock:
                texts = _unique_documents(next(counter), 3)
            return texts

        def check(texts, by_document):
            with lock:
                expected[tuple(texts)] = [
                    evaluate_whole(specification, text) for text in texts]
                got[tuple(texts)] = by_document

        def http_client():
            for _ in range(3):
                texts = documents()
                request = urllib.request.Request(
                    base + "/extract",
                    data=json.dumps({"texts": texts}).encode("utf-8"),
                    method="POST")
                with urllib.request.urlopen(request, timeout=30) as reply:
                    payload = json.load(reply)
                    with lock:
                        http_ids.add(reply.headers["X-Repro-Request-Id"])
                check(texts, [
                    sorted(tuple(row["y"]) for row in
                           payload["documents"].get(f"doc-{i:04d}", ()))
                    for i in range(len(texts))])

        def thread_client():
            for _ in range(3):
                texts = documents()
                result = service.extract(texts)
                check(texts, [result[f"doc-{i:04d}"]
                              for i in range(len(texts))])

        def loop_client():
            async def main():
                batches = [documents() for _ in range(3)]
                results = await asyncio.gather(*(
                    service.extract_async(texts) for texts in batches))
                for texts, result in zip(batches, results):
                    check(texts, [result[f"doc-{i:04d}"]
                                  for i in range(len(texts))])
            asyncio.run(main())

        def guarded(client):
            def run():
                try:
                    client()
                except BaseException as error:
                    errors.append(error)
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serving(service, ParseRecordingServer) as (base, _s):
                service_thread = _service_thread(service)
                clients = ([http_client] * 4 + [thread_client] * 3
                           + [loop_client] * 2)
                threads = [threading.Thread(target=guarded(client))
                           for client in clients]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert len(got) == 4 * 3 + 3 * 3 + 2 * 3
        for texts, whole in expected.items():
            if isinstance(got[texts][0], list):      # HTTP rows
                whole = [sorted((s.begin, s.end) for t in tuples
                                for _v, s in t.items())
                         for tuples in whole]
            assert got[texts] == whole
        assert spy.overlaps == 0
        # One run at a time: a query's chunks are contiguous.
        order = [query for _thread, query in spy.calls]
        runs = [query for i, query in enumerate(order)
                if i == 0 or order[i - 1] != query]
        assert len(runs) == len(set(runs)) == len(got)
        assert ParseRecordingServer.parsed_on == {service_thread}
        assert {thread for thread, query in spy.calls
                if query in http_ids} == {service_thread}
        assert len(http_ids) == 4 * 3

    def test_loop_answers_during_a_long_run(self):
        specification = a_run_extractor()
        slow = Program(SlowSpanner(specification, delay=0.02),
                       specification, name="slow")
        service = make_service(batch_size=1, program=slow)
        with serving(service) as (base, _server):
            long_run = _submit(service, _unique_documents(1, 40),
                               query_id="long-1")
            running = None
            deadline = time.monotonic() + 10
            while running is None and time.monotonic() < deadline:
                with urllib.request.urlopen(base + "/healthz",
                                            timeout=5) as reply:
                    assert json.load(reply)["status"] == "ok"
                with urllib.request.urlopen(base + "/debug/inflight",
                                            timeout=5) as reply:
                    running = json.load(reply)["running"]
            assert running is not None and \
                running["query_id"] == "long-1"
            assert not long_run.done()
            assert long_run.result(timeout=30).total_tuples > 0

    def test_blocking_calls_on_the_service_thread_raise(self):
        service = make_service()

        async def on_service_thread():
            raised = []
            for call in (lambda: service.extract(DOCS), service.close):
                try:
                    call()
                except ServiceThreadError as error:
                    raised.append(error.call)
            return raised

        with service:
            started = time.monotonic()
            raised = service.run_coroutine(on_service_thread()).result(5)
            assert time.monotonic() - started < 1.0
            assert raised == ["extract", "close"]
            assert not service.closed
            assert service.extract(DOCS).by_document == reference_results()

    def test_full_queue_is_429_and_close_fails_the_queued(self):
        specification = a_run_extractor()
        slow = Program(SlowSpanner(specification, delay=0.02),
                       specification, name="slow")
        service = make_service(max_queue=1, batch_size=1, program=slow)
        with serving(service) as (base, server):
            blocker = _submit(service, _unique_documents(1, 40))
            deadline = time.monotonic() + 10
            while (service.inflight()["running"] is None
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            queued = _submit(service, ["ab"])
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(base + "/extract", {"texts": ["aa"]})
            assert info.value.code == 429
            assert json.load(info.value)["error"] == "overloaded"
            # Answered at a batch boundary of the running query, not
            # after it: admission never waits for the engine.
            assert not blocker.done()
            service.run_coroutine(server.stop()).result(10)
            service.close(drain=False)
            with pytest.raises(ServiceClosedError):
                queued.result(timeout=10)
            assert blocker.result(timeout=10).total_tuples > 0

    def test_waiters_run_in_admission_order(self, captured_events):
        """A thread's extract(), a foreign loop's extract_async() and a
        reopen_index(), queued behind a long run, take the engine in
        the order they were admitted."""
        service, spy, slow = _spied_service()
        with service:
            futures = _queue_behind_a_long_run(service, slow)
            slow.delay = 0
            report = futures.pop("reopen").result(timeout=30)
            assert report["action"] == "noop"
            for future in futures.values():
                assert future.result(timeout=30).total_tuples > 0
        order = [query for _thread, query in spy.calls]
        assert [query for i, query in enumerate(order)
                if i == 0 or order[i - 1] != query] == ["thread", "loop"]
        lines = captured_events()
        assert [(line["query_id"], line["queue_depth"]) for line in lines
                if line["event"] == "service.admit"] == \
            [("long", 0), ("thread", 1), ("loop", 2)]
        assert [line.get("query_id", "reopen") for line in lines
                if line["event"] in ("service.complete",
                                     "service.reopen_index")] == \
            ["long", "thread", "loop", "reopen"]

    @pytest.mark.parametrize("drain", [True, False])
    def test_close_runs_or_fails_the_waiters(self, drain):
        service, spy, slow = _spied_service()
        futures = _queue_behind_a_long_run(service, slow)
        slow.delay = 0
        service.close(drain=drain)
        assert futures.pop("long").result(timeout=30).total_tuples > 0
        if drain:
            report = futures.pop("reopen").result(timeout=30)
            assert report["action"] == "noop"
            for future in futures.values():
                assert future.result(timeout=30).total_tuples > 0
        else:
            for future in futures.values():
                with pytest.raises(ServiceClosedError):
                    future.result(timeout=30)
            assert spy.calls == []

    def test_reopen_index_refused_when_the_queue_is_full(self):
        specification = a_run_extractor()
        slow = SlowSpanner(specification, delay=0.01)
        service = make_service(max_queue=1, batch_size=1,
                               program=Program(slow, specification,
                                               name="slow"))
        with service:
            blocker = _submit(service, _unique_documents(1, 200))
            _await_queue_depth(service, 0, running=True)
            queued = _submit(service, ["aa"])
            _await_queue_depth(service, 1)
            with pytest.raises(ServiceOverloadedError) as info:
                service.reopen_index().result(timeout=30)
            assert info.value.capacity == 1
            slow.delay = 0
            assert blocker.result(timeout=30).total_tuples > 0
            assert queued.result(timeout=30).total_tuples > 0

    def test_serve_http_returns_when_the_service_closes(self):
        service = make_service()
        bound = []
        ready = threading.Event()
        thread = threading.Thread(
            target=serve_http, args=(service,),
            kwargs={"port": 0,
                    "ready": lambda addr: (bound.append(addr),
                                           ready.set())})
        thread.start()
        try:
            assert ready.wait(10)
            host, port = bound[0]
            status, payload = _post(f"http://{host}:{port}/extract",
                                    {"texts": list(DOCS)})
            assert status == 200 and payload["tuples"] > 0
        finally:
            service.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
