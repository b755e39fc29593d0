"""Work-queue scheduling of chunk batches over a process pool.

The scheduler receives per-document chunk lists, consults the chunk
cache, fans the *missing* texts out over a worker pool, and merges the
shifted span-tuples back per document — the engine-side realization of
``P = P_S o S``: once certified, chunks are context-free units of work
that can be executed anywhere, in any order, and shared between
documents.

A pass has two halves.  :meth:`Scheduler.submit` consults the cache
and hands the missing texts to the pool, which sends its workers what
they have room for at once and the rest whenever this process next
calls into it; :meth:`Scheduler.collect` waits for the results, stores
them and merges.  :meth:`Scheduler.run` is the two back to back; the
engine puts the next batches' first halves between them when a pool is
in use, so the parent splits and merges while the workers sweep.

``workers <= 1`` degrades to in-process sequential evaluation (no pool
overhead), which is also the configuration benchmarks use to isolate
caching effects from parallelism.

How a runner reaches a worker and what a pool task is belong to
:class:`repro.runtime.executor.WorkerPool`; this side decides what the
telemetry every task returns means (:mod:`repro.obs`): chunk latency,
per-worker busy time, queue wait and the parent's own wait for the
pool always land in the metrics registry, and an enabled tracer
additionally gets one ``evaluate`` span per task.  Tracing never
changes what the workers run.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.spans import Span, SpanTuple
from repro.errors import WorkerLostError
from repro.obs.log import event_log
from repro.obs.metrics import Metrics
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.runtime.executor import SpannerLike, WorkerPool, evaluate_chunks

from repro.engine.deadline import NEVER, Deadline

from repro.engine.cache import ChunkCache

#: One document's worth of chunk work: ``(doc_id, [(span, text), ...])``.
DocumentChunks = Tuple[str, Sequence[Tuple[Span, str]]]


@dataclass
class ScheduledBatch:
    """What one scheduler pass did (returned for stats/inspection)."""

    documents: int
    chunk_instances: int
    unique_missing: int


@dataclass
class PendingBatch:
    """A batch between the two halves of its pass: looked up and
    submitted (:meth:`Scheduler.submit`), not yet collected.

    Everything the second half needs travels here, and nowhere else —
    the scheduler and the cache hold nothing about a batch in flight,
    so dropping this object (an abandoned stream, a deadline between
    the halves) leaves no state a later pass could read.
    """

    runner: SpannerLike
    documents: Sequence[DocumentChunks]
    cache: ChunkCache
    namespace: str
    deadline: Deadline
    #: text -> results; ``None`` until :meth:`Scheduler.collect` for
    #: the texts this batch evaluates (``missing``) or takes from the
    #: earlier, uncollected batch that does (``borrowed``, as ``(that
    #: batch, text)`` pairs).
    seen: Dict[str, object]
    missing: List[str]
    borrowed: Sequence[Tuple["PendingBatch", str]]
    chunk_instances: int
    #: The pool's result iterator (``None``: evaluate in process) and
    #: the wall-clock time the tasks were handed over.
    tasks: Optional[Iterator] = None
    submitted: float = 0.0


class Scheduler:
    """Fan unique chunk texts over a pool; merge results per document.

    ``workers`` is the process-pool size (``0``/``1`` = run in
    process).  ``batch_size`` is how many *documents* the engine feeds
    per scheduler pass — it bounds peak memory and sets the in-pass
    dedup granularity; the pool sizes its own tasks.

    A pass is :meth:`submit` then :meth:`collect` (:meth:`run` does
    both); between the two the workers sweep what they were sent and
    the caller is free.
    Nothing about a submitted batch is kept here — it lives in the
    :class:`PendingBatch` the caller holds.

    ``tracer``/``metrics`` are the engine's observability handles: the
    scheduler brackets the second half in ``evaluate``/``merge`` spans
    and folds every pool task's telemetry into the registry:
    ``engine.chunk_eval_seconds``, ``engine.worker_busy_seconds`` and
    ``engine.worker_chunks`` per pid, ``scheduler.queue_wait_seconds``
    (a task's start minus its batch's submission — by design including
    the time it queued behind the batches submitted before) and
    ``scheduler.collect_wait_seconds`` (how long the parent blocked on
    the pool for one batch: large means the workers bound the run,
    near zero means the parent does).

    The pool persists across batches and runs, whatever the tracer
    does meanwhile; swapping to a different runner *drains* the old
    pool and :meth:`close` is the hard shutdown.  A worker that dies
    fails the pass waiting on it with
    :class:`repro.errors.WorkerLostError`; its pool is dropped and the
    next pass forks a fresh one.
    """

    def __init__(self, workers: int = 0, batch_size: int = 32,
                 tracer: Optional[Tracer] = None,
                 metrics: Optional[Metrics] = None) -> None:
        if workers < 0:
            raise ValueError("workers must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.workers = workers
        self.batch_size = batch_size
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else Metrics()
        self.last_batch: ScheduledBatch = ScheduledBatch(0, 0, 0)
        self._pool: Optional[WorkerPool] = None

    # ------------------------------------------------------------------

    def _pool_for(self, runner: SpannerLike) -> WorkerPool:
        """A persistent pool whose workers hold ``runner``: reused
        across batches and runs while the runner object is the same,
        so a corpus run pays pool startup once.

        Swapping to a different runner **drains** the old pool rather
        than terminating it: tasks still in flight — e.g. batches
        abandoned by a deadline-cancelled query, or a concurrent
        stream's pending pass — run to completion before the new pool
        starts, so a swap can never kill work another consumer is
        waiting on.
        """
        if self._pool is not None and self._pool.runner is runner:
            return self._pool
        self._stop_pool("engine.pool.retire", drain=True)
        pool = self._pool = WorkerPool(runner, self.workers)
        event_log().emit(
            "engine.pool.start", workers=self.workers,
            start_method=multiprocessing.get_start_method(),
        )
        return pool

    def _stop_pool(self, event: str, drain: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(drain)
            try:
                event_log().emit(event, workers=self.workers)
            except Exception:
                pass  # close() may run during interpreter teardown

    def close(self) -> None:
        """Hard-stop the worker pool (idempotent): in-flight tasks
        are killed."""
        self._stop_pool("engine.pool.close", drain=False)

    @contextmanager
    def _losing_workers(self) -> Iterator[None]:
        """Let a :class:`repro.errors.WorkerLostError` through, first
        dropping the pool it stopped, so the next pass forks a fresh
        one."""
        try:
            yield
        except WorkerLostError:
            if self._pool is not None and self._pool.lost is not None:
                self._stop_pool("engine.pool.lost", drain=False)
            raise

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def submit(
        self,
        runner: SpannerLike,
        documents: Sequence[DocumentChunks],
        cache: ChunkCache,
        namespace: str,
        deadline: Deadline = NEVER,
        after: Sequence[PendingBatch] = (),
    ) -> PendingBatch:
        """The first half of a pass: consult ``cache`` and hand the
        distinct missing texts to the pool.  Returns at once — with
        ``workers > 1`` the pool is evaluating while the caller does
        something else — and :meth:`collect` finishes the pass.

        ``after`` lists the batches submitted earlier and not yet
        collected (the engine's look-ahead holds them).  A text one of
        them is already evaluating is not submitted again and not
        looked up, so not counted as a miss: it is a hit, resolved at
        :meth:`collect` from that batch's own results, which the LRU
        bound of ``cache`` cannot evict.  Collect batches in
        submission order.
        """
        deadline.check()
        in_flight = {text: earlier for earlier in after
                     if earlier.namespace == namespace
                     for text in earlier.missing}
        # Consult the cache; collect distinct missing texts in
        # first-seen order (deterministic scheduling).  A text repeated
        # within this batch counts as a hit from its second instance on:
        # those instances are served without evaluation.
        seen: Dict[str, object] = {}
        missing: List[str] = []
        borrowed: List[Tuple[PendingBatch, str]] = []
        chunk_instances = 0
        for _doc_id, chunks in documents:
            for _span, text in chunks:
                chunk_instances += 1
                if text in seen:
                    cache.record_batch_hit()
                elif text in in_flight:
                    cache.record_batch_hit()
                    seen[text] = None
                    borrowed.append((in_flight[text], text))
                else:
                    cached = seen[text] = cache.lookup(namespace, text)
                    if cached is None:
                        missing.append(text)
        pending = PendingBatch(runner, documents, cache, namespace, deadline,
                               seen, missing, borrowed, chunk_instances)
        # A pass whose chunks all hit the cache has nothing to ship:
        # its empty batch stays in this process.
        if self.workers > 1 and missing:
            pending.submitted = time.time()
            with self._losing_workers():
                pending.tasks = self._pool_for(runner).evaluate(missing)
        return pending

    def collect(self, pending: PendingBatch) -> Dict[str, Set[SpanTuple]]:
        """The second half of a pass: wait for the pool's results (or,
        in process, evaluate now), store them, and merge the shifted
        tuples back per document."""
        deadline = pending.deadline
        deadline.check()
        seen, missing = pending.seen, pending.missing
        cache, namespace = pending.cache, pending.namespace
        with self.tracer.span(
            "evaluate", unique_missing=len(missing),
            instances=pending.chunk_instances,
            workers=self.workers if self.workers > 1 else 0, tasks=0,
        ) as span:
            if pending.tasks is None:
                results = evaluate_chunks(
                    pending.runner, missing,
                    self.metrics.histogram("engine.chunk_eval_seconds"),
                    deadline.check)
            else:
                with self._losing_workers():
                    results = self._gather(pending, span)
            for text, found in zip(missing, results):
                seen[text] = cache.store(namespace, text, found)
        for earlier, text in pending.borrowed:
            found = seen[text] = earlier.seen[text]
            if found is None:
                raise RuntimeError(
                    "collect() out of submission order: the batch "
                    "evaluating this text has not been collected")
        pending.borrowed = ()  # collected batches must not chain up

        with self.tracer.span(
                "merge", documents=len(pending.documents)) as span:
            resolved: Dict[str, Set[SpanTuple]] = {}
            tuples_merged = 0
            for doc_id, chunks in pending.documents:
                merged: Set[SpanTuple] = resolved.setdefault(doc_id, set())
                for span_, text in chunks:
                    results = seen[text]
                    if results:
                        merged.update(t.shift(span_) for t in results)
                tuples_merged += len(merged)
            span.set("tuples", tuples_merged)

        self.last_batch = ScheduledBatch(
            len(pending.documents), pending.chunk_instances, len(missing)
        )
        return resolved

    def _gather(self, pending: PendingBatch, span) -> List[Set[SpanTuple]]:
        """The pool's results for ``pending``, in text order, with
        every task's telemetry folded into the registry (and, traced,
        into one worker ``evaluate`` span per task under ``span`` —
        which a task may well have started before)."""
        metrics, tracer = self.metrics, self.tracer
        latency = metrics.histogram("engine.chunk_eval_seconds")
        queue_wait = metrics.histogram("scheduler.queue_wait_seconds")
        missing = pending.missing
        results: List[Set[SpanTuple]] = []
        blocked = 0.0
        clock = time.perf_counter
        waiting = clock()
        for group, task in pending.tasks:
            blocked += clock() - waiting
            span.inc("tasks")
            if tracer.enabled:
                done = len(results)
                tracer.adopt([SpanRecord(
                    name="evaluate", span_id=0, parent_id=None,
                    start=task.started, duration=task.busy_seconds,
                    pid=task.pid, tid=0, attributes={
                        "chunks": len(group),
                        "chars": sum(map(
                            len, missing[done:done + len(group)])),
                        "tuples": sum(map(len, group)),
                    },
                )], parent_id=span.span_id)
            results.extend(group)
            latency.observe_many(task.chunk_seconds)
            metrics.counter("engine.worker_busy_seconds",
                            pid=task.pid).inc(task.busy_seconds)
            metrics.counter("engine.worker_chunks",
                            pid=task.pid).inc(len(group))
            # Measured from this batch's submission, so by design it
            # includes the time a task queued behind the tasks of the
            # batches submitted before it (the engine's look-ahead).
            queue_wait.observe(max(0.0, task.started - pending.submitted))
            pending.deadline.check()
            waiting = clock()
        metrics.histogram("scheduler.collect_wait_seconds").observe(blocked)
        return results

    def run(
        self,
        runner: SpannerLike,
        documents: Sequence[DocumentChunks],
        cache: ChunkCache,
        namespace: str,
        deadline: Deadline = NEVER,
    ) -> Dict[str, Set[SpanTuple]]:
        """Evaluate every document's chunks, deduplicated via ``cache``:
        :meth:`submit` and :meth:`collect` back to back.

        Returns ``doc_id -> set of (shifted) span tuples``.  Each
        distinct chunk text missing from the cache is evaluated exactly
        once — even when it repeats within this batch — and stored for
        future batches and future runs.

        ``deadline`` is checked cooperatively between evaluation
        batches (never mid-chunk): an expired deadline raises
        :class:`repro.errors.DeadlineExceededError`, results already
        evaluated stay cached, and the pool keeps running — the next
        ``run`` on this scheduler proceeds normally.
        """
        return self.collect(
            self.submit(runner, documents, cache, namespace, deadline))
