"""The resident :class:`ExtractionService`: one hot engine, many queries.

Everything below the service is batch-oriented and synchronous; the
service makes it *resident*.  One service thread owns a single
:class:`repro.engine.ExtractionEngine` — the ownership boundary: no
other thread ever touches the engine, so the plan cache, chunk cache,
corpus index and worker pool stay hot and uncontended across thousands
of queries.  That thread runs an :mod:`asyncio` event loop, and the
HTTP endpoint (:func:`repro.serve.http.serve_http`) listens on the
same loop, so a request is read, run and answered on one thread.

How a query reaches the engine: :meth:`ExtractionService.extract_async`
is the one entry, and :meth:`ExtractionService.extract` its blocking
wrapper.  Every query holds the engine's :class:`asyncio.Lock` on the
service loop (one from another loop crosses over first), and so do
:meth:`~ExtractionService.reopen_index` and
:meth:`~ExtractionService.close`.  The lock wakes its waiters in
arrival order, so queries run one at a time in admission order; an
uncontended acquire does not yield, so a query that finds the engine
free runs at once, in its caller's turn.  A running query yields to
the loop at every engine batch boundary, so requests keep being read
(``/healthz`` and ``/debug/inflight`` keep answering) during a long
run.

A blocking call that waits for the loop (``extract``, ``close``) made
on the service thread itself raises
:class:`repro.errors.ServiceThreadError` instead of deadlocking.

Three serving disciplines, all explicit:

* **Admission control** — at most ``max_queue`` queries wait for the
  engine; the next one is refused with
  :class:`repro.errors.ServiceOverloadedError` instead of buffering
  unboundedly (load shedding at the front door).
* **Deadlines** — every query carries a
  :class:`repro.engine.deadline.Deadline` started when it is issued,
  so the budget covers queue wait too; the engine checks it
  cooperatively at batch boundaries and raises
  :class:`repro.errors.DeadlineExceededError` without poisoning the
  shared engine (pool and caches stay intact).
* **Per-tenant accounting** — queries, tuples, deadline misses,
  rejections, queue-wait and latency histograms, all labeled by
  tenant in the engine's :class:`repro.obs.metrics.Metrics` registry
  and exportable as Prometheus text.

Typical use (in a coroutine, ``await service.extract_async(...)``)::

    >>> from repro import Q, Spanner
    >>> spanner = Spanner.regex(".*( )y{a+}( ).*|y{a+}( ).*"
    ...                         "|.*( )y{a+}|y{a+}", "ab .")
    >>> service = Q(spanner).split_by("tokens").serve(max_queue=8)
    >>> result = service.extract(["aa ab a", "b aa b"], tenant="acme")
    >>> result.total_tuples
    3
    >>> service.inflight()["tenants"]["acme"]
    {'queries': 1, 'rejections': 0, 'deadline_misses': 0, 'errors': 0}
    >>> latency = service.metrics.histogram("service.latency_seconds",
    ...                                     tenant="acme")
    >>> latency.quantile(0.95) > 0        # or scrape GET /metrics
    True
    >>> service.close()

The stdlib HTTP/JSON endpoint on top lives in :mod:`repro.serve.http`
(``python -m repro serve`` starts it).
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.spans import SpanTuple
from repro.engine.deadline import Deadline, as_deadline
from repro.engine.engine import _as_corpus, _as_program
from repro.errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceThreadError,
)
from repro.obs.flight import FlightRecorder, QueryRecord
from repro.obs.log import event_log
from repro.obs.metrics import Counter, Metrics

#: Process-wide query-id sequence (ids stay unique across services).
_QUERY_IDS = itertools.count(1)


def _new_query_id() -> str:
    """A fresh query id: short, sortable, unique within this process
    and distinguishable across processes (the pid is embedded)."""
    return f"q-{os.getpid():x}-{next(_QUERY_IDS):06d}"


@dataclass
class ServiceResult:
    """What one served query produced.

    ``by_document`` maps ``doc_id -> set of span tuples`` (the
    engine's result shape); the timing fields make latency visible per
    query — ``queue_seconds`` is time spent waiting for the engine
    (issue to start of execution: ~0 for a query that found it free),
    ``run_seconds`` the engine pass itself.
    """

    by_document: Dict[str, Set[SpanTuple]]
    tenant: str
    queue_seconds: float
    run_seconds: float
    program: str = "query"
    #: The flight-recorder record of this query (id, per-phase
    #: durations, counters, slow flag) when the service carries a
    #: :class:`repro.obs.flight.FlightRecorder`; ``None`` otherwise.
    record: Optional[QueryRecord] = None

    @property
    def query_id(self) -> Optional[str]:
        return self.record.query_id if self.record is not None else None

    @property
    def total_tuples(self) -> int:
        return sum(len(tuples) for tuples in self.by_document.values())

    def __getitem__(self, doc_id: str) -> Set[SpanTuple]:
        return self.by_document[doc_id]

    def __len__(self) -> int:
        return len(self.by_document)


@dataclass
class _Job:
    """One issued query."""

    corpus: object
    program: object
    tenant: str
    deadline: Deadline
    query_id: str
    enqueued: float = field(default_factory=time.monotonic)


class ExtractionService:
    """A long-lived, concurrent front end over one extraction engine.

    ``engine`` is an :class:`repro.engine.ExtractionEngine` the service
    takes ownership of (it is driven exclusively by the service's
    thread and closed by :meth:`close`); build one explicitly, or — the
    fluent route — let :meth:`repro.query.Query.serve` derive service
    and engine from a configured query in one call.

    ``program`` optionally fixes a default extraction program
    (:class:`repro.engine.Program` or anything
    :meth:`repro.engine.Program.from_query` accepts): queries may then
    omit theirs.  ``max_queue`` bounds how many queries may wait for
    the engine (the next one fails with
    :class:`repro.errors.ServiceOverloadedError`);
    ``default_deadline`` (seconds, or a
    :class:`repro.engine.deadline.Deadline` factory value) applies to
    queries that do not carry their own.

    Queries execute **serially** on the service thread — chunk-level
    parallelism comes from the engine's worker pool, and serial
    execution is precisely what makes concurrent identical queries
    share one certification and one chunk-cache population instead of
    racing.  The service is usable as a context manager; it starts
    lazily on first use.
    """

    def __init__(
        self,
        engine,
        program: object = None,
        max_queue: int = 64,
        default_deadline: Optional[float] = None,
        name: str = "service",
        flight: Optional[FlightRecorder] = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be positive")
        self._engine = engine
        self._default_program = program
        self._default_deadline = default_deadline
        self.name = name
        self.max_queue = max_queue
        # Guards start and close: what run_coroutine() schedules lands
        # on the loop before close()'s stop, or is refused.
        self._lifecycle = threading.Lock()
        self._closed = False
        #: Set by ``close(drain=False)``: waiters fail when they wake.
        self._abandon = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        #: Held by whatever runs on the engine (made in _serve_loop).
        self._engine_lock: Optional[asyncio.Lock] = None
        #: Callers admitted but not yet holding the engine lock.
        self._waiting = 0
        self._queue_depth = engine.metrics.gauge("service.queue_depth")
        #: The flight recorder retaining completed-query records
        #: (``None`` = recording off).  A recorder that wants span
        #: trees turns on engine-wide tracing; the service then
        #: *drains* the tracer per query, so each record gets exactly
        #: its own spans and the span buffer never grows unboundedly
        #: on a long-lived service.
        self.flight = flight
        if (flight is not None and flight.capture_spans
                and not engine.tracer.enabled):
            engine.enable_tracing()
        if engine.tracer.enabled:
            event_log().bind_tracer(engine.tracer)
        #: The query currently executing on the service thread, as an
        #: immutable summary dict (atomic assignment: readable from
        #: any thread without a lock), or ``None`` when idle.
        self._running: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ExtractionService":
        """Start the service thread and its event loop (idempotent;
        implicit on first use)."""
        with self._lifecycle:
            self._start_locked()
        return self

    def _start_locked(self) -> None:
        if self._closed:
            raise ServiceClosedError()
        if self._thread is None:
            self._loop = asyncio.new_event_loop()
            self._thread = threading.Thread(
                target=self._serve_loop,
                name=f"repro-{self.name}-dispatcher",
                daemon=True,
            )
            self._thread.start()
            event_log().emit("service.start", service=self.name,
                             max_queue=self.max_queue)

    def _serve_loop(self) -> None:
        """The service thread: run the loop until :meth:`close` stops
        it, then cancel what is left on it, as :func:`asyncio.run`
        does (connections of an HTTP server never stopped)."""
        loop = self._loop
        asyncio.set_event_loop(loop)
        # Made here, before the loop runs: Python 3.9 binds a lock to
        # the current event loop when it is constructed.
        self._engine_lock = asyncio.Lock()
        try:
            loop.run_forever()
        finally:
            tasks = asyncio.all_tasks(loop)
            for task in tasks:
                task.cancel()
            if tasks:
                loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
            loop.close()

    def run_coroutine(self, coroutine) -> "Future[object]":
        """Run ``coroutine`` on the service's event loop (starting the
        service if need be); returns a future of its result.  Raises
        :class:`repro.errors.ServiceClosedError` after :meth:`close`.

        This is how a thread or another event loop reaches the
        engine, and how :func:`repro.serve.http.serve_http` binds its
        endpoint to the thread that owns it.
        """
        with self._lifecycle:
            if self._closed:
                coroutine.close()
            self._start_locked()        # raises once closed
            return asyncio.run_coroutine_threadsafe(coroutine, self._loop)

    def close(self, drain: bool = True) -> None:
        """Stop accepting queries and shut the service down.

        With ``drain=True`` (default) queries already admitted run to
        completion first; with ``drain=False`` waiting queries fail
        with :class:`repro.errors.ServiceClosedError` (a running one
        finishes).  The service thread exits and the owned engine's
        pool is stopped; caches survive on the engine object.
        Idempotent.  Raises :class:`repro.errors.ServiceThreadError`
        on the service thread, which cannot wait for itself.
        """
        self._refuse_on_service_thread("close")
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            self._abandon = not drain
            thread = self._thread
            if thread is not None:
                asyncio.run_coroutine_threadsafe(self._stop(), self._loop)
        if thread is not None:
            thread.join()
        self._engine.close()
        event_log().emit("service.close", service=self.name,
                         drained=drain)

    def __enter__(self) -> "ExtractionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _refuse_on_service_thread(self, call: str) -> None:
        if threading.current_thread() is self._thread:
            raise ServiceThreadError(call)

    # ------------------------------------------------------------------
    # Queries (any thread, any loop)
    # ------------------------------------------------------------------

    async def extract_async(self, corpus, program: object = None,
                            tenant: str = "default",
                            deadline: object = None,
                            query_id: Optional[str] = None
                            ) -> ServiceResult:
        """Run one query; resolves to a :class:`ServiceResult`.

        ``corpus`` is anything the engine accepts (a
        :class:`repro.engine.Corpus`, a mapping ``id -> text``, or a
        sequence of texts); ``program`` defaults to the service's
        default program.  ``deadline`` (seconds or a
        :class:`Deadline`) starts counting *now* — queue wait spends
        budget too.  Raises :class:`ServiceClosedError` after
        :meth:`close` and :class:`ServiceOverloadedError` when
        ``max_queue`` queries already wait for the engine.

        On the service's own loop, where the HTTP endpoint runs, the
        query takes the engine lock in the awaiting task; from any
        other loop, on the service loop.  For a future instead, call
        ``service.run_coroutine(service.extract_async(...))``.

        ``query_id`` names the query in the flight recorder and event
        log (generated when omitted); the HTTP layer passes its
        per-request id here, so ``X-Repro-Request-Id`` and
        ``GET /debug/queries/<id>`` refer to the same record.
        """
        job = self._job(corpus, program, tenant, deadline, query_id)
        served = self._in_turn(job)
        if asyncio.get_running_loop() is self._loop:
            return await served
        return await asyncio.wrap_future(self.run_coroutine(served))

    def extract(self, corpus, program: object = None,
                tenant: str = "default",
                deadline: object = None,
                query_id: Optional[str] = None) -> ServiceResult:
        """:meth:`extract_async`, blocking for the result.

        Raises :class:`repro.errors.ServiceThreadError` on the service
        thread, where the result could never arrive; await
        :meth:`extract_async` there.
        """
        self._refuse_on_service_thread("extract")
        job = self._job(corpus, program, tenant, deadline, query_id)
        return self.run_coroutine(self._in_turn(job)).result()

    def reopen_index(self, path: Optional[str] = None) -> "Future[object]":
        """Pick up index changes without restarting the service.

        With ``path``, opens the index directory there and attaches
        it to the resident engine, closing the previously attached
        index if it had one.  With no ``path``, refreshes the
        currently attached
        :class:`repro.index.store.SegmentedIndex` in place — after an
        out-of-process :meth:`~repro.index.store.SegmentedIndex.
        compact` or delta flush, the engine starts serving the new
        generation from the next query (prefilter masks recompute
        automatically off the index version).

        Holds the engine lock like a query — never concurrently with
        one — so in-flight queries finish against the index they
        started with.  Returns a future resolving to a report dict,
        or failing with :class:`ServiceOverloadedError` when
        ``max_queue`` callers already wait; raises
        :class:`ServiceClosedError` after :meth:`close`.
        """

        async def reopen() -> Dict[str, object]:
            engine = self._engine
            index = engine.index
            if path is not None:
                engine.attach_index(path)
                if index is not None:
                    index.close()
                report: Dict[str, object] = {
                    "action": "attached", "path": path,
                    "segments": engine.index.segment_count,
                }
            elif index is None:
                report = {"action": "noop",
                          "reason": "no index attached"}
            else:
                report = {
                    "action": "refreshed", "changed": index.refresh(),
                    "generation": index.generation,
                    "segments": index.segment_count,
                }
            event_log().emit("service.reopen_index", service=self.name,
                             **report)
            return report

        return self.run_coroutine(self._in_turn(None, reopen))

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def _job(self, corpus, program, tenant: str, deadline,
             query_id: Optional[str]) -> _Job:
        """One query, stamped now: refused when the service is
        closed, rejected when it has no program."""
        if query_id is None:
            query_id = _new_query_id()
        if self._closed:
            self._refuse(tenant, query_id, "closed")
        program = program if program is not None else self._default_program
        if program is None:
            raise ValueError(
                "no program: pass one to extract() or configure a "
                "default on the service"
            )
        if deadline is None:
            deadline = self._default_deadline
        return _Job(corpus=corpus, program=program, tenant=tenant,
                    deadline=as_deadline(deadline), query_id=query_id)

    def _refuse(self, tenant: str, query_id: str, reason: str) -> None:
        self._count("service.rejections", tenant, reason=reason).inc()
        event_log().emit("service.reject", level="warning",
                         tenant=tenant, query_id=query_id, reason=reason,
                         max_queue=self.max_queue)
        if reason == "closed":
            raise ServiceClosedError()
        raise ServiceOverloadedError(self.max_queue)

    async def _in_turn(self, job: Optional[_Job], control=None):
        """Run ``job`` holding the engine lock, once every caller
        admitted before it has had the engine (the service loop only).
        With ``job=None``, await ``control()`` instead: an engine
        operation, refused like a query but not counted for a tenant.
        """
        lock = self._engine_lock
        queued = lock.locked() or self._waiting > 0
        if self._waiting >= self.max_queue:
            if job is None:
                raise ServiceOverloadedError(self.max_queue)
            self._refuse(job.tenant, job.query_id, "overloaded")
        self._waiting += 1
        if job is not None:
            queue_depth = self._waiting if queued else 0
            self._queue_depth.set(queue_depth)
            event_log().emit("service.admit", tenant=job.tenant,
                             query_id=job.query_id,
                             program=getattr(job.program, "name", "query"),
                             queue_depth=queue_depth)
        try:
            await lock.acquire()
        finally:
            self._waiting -= 1
        try:
            self._queue_depth.set(self._waiting)
            if self._abandon:
                raise ServiceClosedError()
            return await (self._run(job) if job is not None
                          else control())
        finally:
            lock.release()

    async def _stop(self) -> None:
        """:meth:`close`, on the loop: stop it once every caller
        admitted before has had the engine."""
        async with self._engine_lock:
            self._loop.stop()

    # ------------------------------------------------------------------
    # Execution (the service thread)
    # ------------------------------------------------------------------

    async def _run(self, job: _Job) -> ServiceResult:
        """Run one admitted query on the engine this task holds,
        yielding to the loop at every engine batch boundary."""
        tenant = job.tenant
        queue_wait = time.monotonic() - job.enqueued
        self._histogram("service.queue_wait_seconds", tenant) \
            .observe(queue_wait)
        program_name = getattr(job.program, "name", "query")
        self._running = {
            "query_id": job.query_id,
            "tenant": tenant,
            "program": program_name,
            "started": time.time(),
            "deadline_remaining": job.deadline.remaining(),
        }
        engine = self._engine
        tracer = engine.tracer
        if tracer.enabled:
            # Whatever is in the buffer predates this query (startup
            # spans, spans of a run driven outside the service);
            # dropping it here makes the post-run drain exactly this
            # query's spans — and doubles as the retention policy that
            # keeps a long-lived server's span buffer bounded.
            tracer.drain()
        # Only a flight record reads the counters' delta.
        stats_before = engine.stats() if self.flight is not None else None
        started = time.perf_counter()
        error: Optional[BaseException] = None
        certified = None
        by_document: Dict[str, Set[SpanTuple]] = {}
        try:
            # Reject a dead-on-arrival budget before any engine work;
            # mid-run expiry surfaces from the engine's own batch-
            # boundary checks.
            job.deadline.check()
            program = _as_program(job.program)
            certified = engine.certify(program)
            # The lazy core of engine.run/run_iter, fed the certificate
            # this query keeps for its flight record (run_iter would
            # certify a second time).  It yields a batch's documents
            # together, so every ``batch`` documents is a boundary.
            documents = engine._iter_certified(
                _as_corpus(job.corpus), program, certified, job.deadline)
            batch = max(1, engine.scheduler.batch_size)
            try:
                for count, (doc_id, tuples) in enumerate(documents, 1):
                    by_document[doc_id] = tuples
                    if count % batch == 0:
                        await asyncio.sleep(0)
            finally:
                documents.close()
        except BaseException as caught:  # accounted, then re-raised
            error = caught
        run_seconds = time.perf_counter() - started
        self._count("service.queries", tenant).inc()
        self._histogram("service.latency_seconds", tenant) \
            .observe(time.monotonic() - job.enqueued)
        spans = tracer.drain() if tracer.enabled else []
        self._running = None

        if error is not None:
            missed = isinstance(error, DeadlineExceededError)
            if missed:
                self._count("service.deadline_misses", tenant).inc()
            self._count("service.errors", tenant,
                        kind=type(error).__name__).inc()
            record = self._record(job, program_name, queue_wait,
                                  run_seconds, stats_before, spans,
                                  certified, outcome=type(error).__name__,
                                  detail=str(error))
            event_log().emit(
                "service.deadline_miss" if missed else "service.error",
                level="warning" if missed else "error",
                tenant=tenant, query_id=job.query_id,
                program=program_name, error=type(error).__name__,
                detail=str(error), queue_seconds=queue_wait,
                run_seconds=run_seconds,
                slow=record.slow if record is not None else False,
            )
            raise error

        tuples = sum(len(found) for found in by_document.values())
        self._count("service.tuples", tenant).inc(tuples)
        record = self._record(job, program_name, queue_wait, run_seconds,
                              stats_before, spans, certified,
                              outcome="ok", documents=len(by_document),
                              tuples=tuples)
        event_log().emit(
            "service.complete", tenant=tenant, query_id=job.query_id,
            program=program_name, documents=len(by_document),
            tuples=tuples, queue_seconds=queue_wait,
            run_seconds=run_seconds,
            slow=record.slow if record is not None else False,
        )
        return ServiceResult(by_document, tenant, queue_wait, run_seconds,
                             program=program_name, record=record)

    def _record(
        self, job: _Job, program_name: str, queue_wait: float,
        run_seconds: float, stats_before, spans, certified,
        outcome: str, detail: Optional[str] = None,
        documents: Optional[int] = None, tuples: Optional[int] = None,
    ) -> Optional[QueryRecord]:
        """Build and file this query's flight record (``None`` when
        recording is off).  Runs on the service thread, after the
        engine pass; the explain payload is resolved lazily and only
        for queries the slow log keeps.  ``documents``/``tuples`` are
        the result's; a failed query reads them from the counters."""
        if self.flight is None:
            return None
        delta = self._engine.stats().since(stats_before)
        if certified is None:
            try:
                # The query died before certifying: this fills the gap.
                certified = self._engine.certify(job.program)
            except Exception:
                certified = None
        explain = None
        kernel_tier = None
        if certified is not None:
            plan_explain = certified.explain
            prefilter_report = self._engine.prefilter_report
            kernel_tier = certified.kernel_tier()

            def explain() -> Dict[str, object]:
                return {"plan": plan_explain(),
                        "index": prefilter_report(certified)}

        record = QueryRecord(
            query_id=job.query_id,
            program=program_name,
            fingerprint=self._fingerprint(job.program),
            tenant=job.tenant,
            outcome=outcome,
            error=detail,
            started=time.time() - queue_wait - run_seconds,
            queue_seconds=queue_wait,
            run_seconds=run_seconds,
            documents=(documents if documents is not None
                       else delta.documents),
            tuples=tuples if tuples is not None else delta.tuples_emitted,
            deadline_budget=job.deadline.budget,
            kernel_tier=kernel_tier,
            counters=delta.snapshot(),
        )
        return self.flight.record(record, span_records=spans,
                                  explain=explain)

    @staticmethod
    def _fingerprint(program) -> str:
        fingerprint = getattr(program, "fingerprint", None)
        if callable(fingerprint):
            try:
                return str(fingerprint())
            except Exception:
                pass
        return f"id-{id(program):x}"

    def _count(self, name: str, tenant: str, **labels):
        return self._engine.metrics.counter(name, tenant=tenant, **labels)

    def _histogram(self, name: str, tenant: str):
        return self._engine.metrics.histogram(name, tenant=tenant)

    # ------------------------------------------------------------------
    # Introspection (any thread; read-only views)
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> Metrics:
        """The engine's metrics registry (counters, histograms —
        including every ``service.*`` tenant-labeled instrument)."""
        return self._engine.metrics

    def flight_records(self, limit: Optional[int] = None
                       ) -> List[Dict[str, object]]:
        """Summaries of the retained query records, most recent last
        (the ``GET /debug/queries`` payload; ``[]`` when recording is
        off)."""
        if self.flight is None:
            return []
        return [record.to_dict() for record in self.flight.recent(limit)]

    def flight_record(self, query_id: str
                      ) -> Optional[Dict[str, object]]:
        """One query's full record — span tree and explain payload
        included when the slow log kept them (``GET
        /debug/queries/<id>``)."""
        if self.flight is None:
            return None
        record = self.flight.get(query_id)
        return record.to_dict(full=True) if record is not None else None

    def slow_queries(self, limit: Optional[int] = None
                     ) -> List[Dict[str, object]]:
        """Full records of the slow-query log, most recent last
        (``GET /debug/slow``)."""
        if self.flight is None:
            return []
        return [record.to_dict(full=True)
                for record in self.flight.slow(limit)]

    def inflight(self) -> Dict[str, object]:
        """The live service view (``GET /debug/inflight``): queue
        depth, the running query, per-tenant admission counters, and
        the flight recorder's retention state."""
        tenants: Dict[str, Dict[str, float]] = {}
        rollup = {"service.queries": "queries",
                  "service.rejections": "rejections",
                  "service.deadline_misses": "deadline_misses",
                  "service.errors": "errors"}
        for instrument in self._engine.metrics.instruments():
            field = rollup.get(getattr(instrument, "name", ""))
            if field is None or not isinstance(instrument, Counter):
                continue
            tenant = instrument.labels.get("tenant")
            if tenant is None:
                continue
            bucket = tenants.setdefault(str(tenant),
                                        dict.fromkeys(rollup.values(), 0))
            bucket[field] += instrument.value
        return {
            "service": self.name,
            "closed": self._closed,
            "queue_depth": self._waiting,
            "max_queue": self.max_queue,
            "running": self._running,
            "tenants": tenants,
            "flight": (self.flight.describe()
                       if self.flight is not None else None),
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the service + engine + kernel
        registries (what ``GET /metrics`` serves)."""
        from repro.obs.metrics import kernel_metrics

        combined = Metrics().merge(self._engine.metrics) \
                            .merge(kernel_metrics())
        return combined.to_prometheus()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "running" if self._thread is not None else "idle")
        return (f"ExtractionService({self.name!r}, {state}, "
                f"queue {self._waiting}/{self.max_queue})")
