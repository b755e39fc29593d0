"""Tests for the resident serving layer (:mod:`repro.serve`) and the
deadline/admission semantics it builds on."""

import asyncio
import json
import multiprocessing
import multiprocessing.process
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import Corpus, Deadline, ExtractionEngine, Program, \
    as_deadline
from repro.engine.deadline import NEVER
from repro.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
)
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
            stats = service.tenant_stats("acme")
        assert result.by_document == reference_results()
        assert stats["deadline_misses"] == 1
        assert stats["queries"] == 2
        assert stats["latency_p95"] > 0

    def test_admission_rejects_when_queue_full(self):
        specification = a_run_extractor()
        slow = Program(SlowSpanner(specification, delay=0.05),
                       specification, name="slow")
        service = make_service(max_queue=1, batch_size=1, program=slow)
        # Ten distinct single-chunk documents: ~0.5s of dispatcher
        # work, plenty of time to observe a full queue.
        blocker_corpus = [f"a{'b' * i}" for i in range(10)]
        with service:
            blocker = service.submit(blocker_corpus, tenant="acme")
            admitted = []
            with pytest.raises(ServiceOverloadedError) as info:
                for _ in range(50):
                    admitted.append(service.submit(["ab"],
                                                   tenant="acme"))
            assert info.value.capacity == 1
            blocker.result(timeout=30)
            for future in admitted:
                future.result(timeout=30)
            stats = service.tenant_stats("acme")
        assert stats["rejections"] >= 1

    def test_concurrent_queries_share_one_certification(self):
        service = make_service(max_queue=32)
        program = Program(a_run_extractor(), name="shared")
        barrier = threading.Barrier(8)
        futures = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            future = service.submit(DOCS, program)
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
            futures = [service.submit(docs) for _ in range(4)]
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
            service.submit(DOCS)

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


@pytest.fixture
def http_service():
    service = make_service(max_queue=16).start()
    server = ServiceHTTPServer(service)
    bound = {}
    ready = threading.Event()

    def run():
        async def main():
            bound["loop"] = asyncio.get_running_loop()
            bound["addr"] = await server.start(port=0)
            ready.set()
            await server.serve_forever()
        try:
            asyncio.run(main())
        except asyncio.CancelledError:
            pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10)
    host, port = bound["addr"]
    yield f"http://{host}:{port}", service
    # Closing the server cancels serve_forever(), unwinding the loop.
    asyncio.run_coroutine_threadsafe(server.stop(), bound["loop"])
    thread.join(timeout=10)
    service.close()


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
        stats = service.tenant_stats("swarm")
        assert stats["queries"] == 7
        assert stats["deadline_misses"] == 1
