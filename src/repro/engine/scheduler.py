"""Scheduling document batches, in process or over a process pool.

The scheduler receives per-document chunk lists, consults the chunk
cache, evaluates the *missing* texts once each, and merges the shifted
span-tuples back per document — the engine-side realization of
``P = P_S o S``: once certified, chunks are context-free units of work
that can be executed anywhere, in any order, and shared between
documents.  With ``workers > 1`` each pool worker runs that same pass
on whole documents over its own chunk cache (emptied when the parent's
is cleared), so this process only ships texts and collects relations.

A pass has two halves: :meth:`Scheduler.submit` consults the cache or
hands the documents to the pool, :meth:`Scheduler.collect` evaluates
or waits, stores and merges.  :meth:`Scheduler.run` is the two back
to back; the engine puts the next batches' first halves between them
when a pool is in use, so the workers sweep while this process
streams.

``workers <= 1`` degrades to in-process sequential evaluation (no pool
overhead), which is also the configuration benchmarks use to isolate
caching effects from parallelism.

How a runner reaches a worker and what a pool task is belong to
:class:`repro.runtime.executor.WorkerPool`; this side decides what the
telemetry every task returns means (:mod:`repro.obs`): cache counts,
chunk latency, kernel counters, busy time and waits always land in the
registries, and an enabled tracer additionally gets one ``evaluate``
span per task, with the worker's ``split`` and ``merge`` under it.
Tracing never changes what the workers run.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.core.spans import Span, SpanTuple
from repro.errors import WorkerLostError
from repro.obs.log import event_log
from repro.obs.metrics import Metrics, kernel_metrics
from repro.obs.trace import NULL_TRACER, SpanRecord, Tracer
from repro.runtime.executor import (KERNEL_COUNTERS, SpannerLike,
                                    WorkerPool, evaluate_chunks,
                                    relation_of)

from repro.engine.deadline import NEVER, Deadline

from repro.engine.cache import ChunkCache

#: One document's worth of chunk work: ``(doc_id, [(span, text), ...])``
#: or, pooled, ``(doc_id, text)`` for a worker to split.
DocumentChunks = Tuple[str, Union[str, Sequence[Tuple[Span, str]]]]


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
    #: In process: text -> results, ``None`` until
    #: :meth:`Scheduler.collect` for the ``missing`` ones.
    seen: Dict[str, object]
    missing: List[str]
    chunk_instances: int
    #: The pool's result iterator (``None``: evaluate in process) and
    #: the wall-clock time the tasks were handed over.
    tasks: Optional[Iterator] = None
    submitted: float = 0.0
    #: doc_id -> chunk count of each document a worker split.
    split: Dict[str, int] = field(default_factory=dict)


class Scheduler:
    """Evaluate chunk texts in process, or documents over a pool.

    ``workers`` is the process-pool size (``0``/``1`` = run in
    process).  ``batch_size`` is how many *documents* the engine feeds
    per scheduler pass — it bounds peak memory and sets the in-pass
    dedup granularity; the pool sizes its own tasks.

    A pass is :meth:`submit` then :meth:`collect` (:meth:`run` does
    both); between the two the workers split what they were sent (with
    the splitter given, or not at all) and sweep it, and the caller is
    free.  Nothing about a submitted batch is kept here — it lives in
    the :class:`PendingBatch` the caller holds.

    ``tracer``/``metrics`` are the engine's observability handles: the
    scheduler brackets the second half in ``evaluate``/``merge`` spans
    and folds every pool task's telemetry into the cache's counters,
    :func:`repro.obs.metrics.kernel_metrics` and the registry:
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
        splitter: Optional[object] = None,
    ) -> PendingBatch:
        """The first half of a pass: consult ``cache`` — or hand the
        documents to the pool, whose workers split a text with
        ``splitter`` (``None``: one chunk).  :meth:`collect` finishes."""
        deadline.check()
        if self.workers > 1:
            pending = PendingBatch(runner, documents, cache, namespace,
                                   deadline, {}, [], 0)
            if documents:
                items = [(doc_id, chunks, None) if isinstance(chunks, str)
                         else (doc_id, None, chunks)
                         for doc_id, chunks in documents]
                pending.submitted = time.time()
                with self._losing_workers():
                    pending.tasks = self._pool_for(runner).evaluate(
                        items, (cache.generation, namespace, cache.limit,
                                splitter))
            return pending
        # Consult the cache; collect distinct missing texts in
        # first-seen order (deterministic scheduling).  A text repeated
        # within this batch counts as a hit from its second instance on:
        # those instances are served without evaluation.
        seen: Dict[str, object] = {}
        missing: List[str] = []
        chunk_instances = 0
        for _doc_id, chunks in documents:
            for _span, text in chunks:
                chunk_instances += 1
                if text in seen:
                    cache.record_batch_hit()
                else:
                    cached = seen[text] = cache.lookup(namespace, text)
                    if cached is None:
                        missing.append(text)
        return PendingBatch(runner, documents, cache, namespace, deadline,
                            seen, missing, chunk_instances)

    def collect(self, pending: PendingBatch) -> Dict[str, Set[SpanTuple]]:
        """The second half of a pass: evaluate, store and merge in
        process — or take the pool's merged relations."""
        deadline = pending.deadline
        deadline.check()
        if pending.tasks is not None:
            with self.tracer.span(
                "evaluate", documents=len(pending.documents),
                workers=self.workers, tasks=0,
            ) as span, self._losing_workers():
                return self._gather(pending, span)
        seen, missing = pending.seen, pending.missing
        cache, namespace = pending.cache, pending.namespace
        with self.tracer.span(
            "evaluate", unique_missing=len(missing),
            instances=pending.chunk_instances, workers=0, tasks=0,
        ):
            results = evaluate_chunks(
                pending.runner, missing,
                self.metrics.histogram("engine.chunk_eval_seconds"),
                deadline.check)
            for text, found in zip(missing, results):
                seen[text] = cache.store(namespace, text, found)

        with self.tracer.span(
                "merge", documents=len(pending.documents)) as span:
            resolved: Dict[str, Set[SpanTuple]] = {}
            tuples_merged = 0
            for doc_id, chunks in pending.documents:
                if len(chunks) == 1 and chunks[0][0].begin == 1:
                    # One chunk at offset 0: its relation, as is.
                    merged = resolved[doc_id] = seen[chunks[0][1]]
                else:
                    merged = resolved[doc_id] = set()
                    for span_, text in chunks:
                        results = seen[text]
                        if results:
                            merged.update(results if span_.begin == 1 else
                                          (t.shift(span_) for t in results))
                tuples_merged += len(merged)
            span.set("tuples", tuples_merged)

        return resolved

    def _gather(self, pending: PendingBatch, span
                ) -> Dict[str, FrozenSet[SpanTuple]]:
        """The pool's relations for ``pending``; every task's telemetry
        goes to the cache, the registries and (traced) the trace."""
        metrics, tracer, cache = self.metrics, self.tracer, pending.cache
        queue_wait = metrics.histogram("scheduler.queue_wait_seconds")
        documents = iter(pending.documents)
        resolved: Dict[str, FrozenSet[SpanTuple]] = {}
        blocked = 0.0
        clock = time.perf_counter
        waiting = clock()
        for group, task in pending.tasks:
            blocked += clock() - waiting
            span.inc("tasks")
            relations = [relation_of(columns) for columns, _ in group]
            # ``documents`` last: zip must not take the next task's.
            for relation, (_, chunks), (doc_id, shipped) in zip(
                    relations, group, documents):
                resolved[doc_id] = relation
                if isinstance(shipped, str):
                    pending.split[doc_id] = chunks
            hits, misses, evictions = task.cache
            cache.hits, cache.misses = cache.hits + hits, cache.misses + misses
            cache.evictions += evictions
            split, evaluate, merge = task.phases
            if tracer.enabled:
                end, pid = task.started + task.busy_seconds, task.pid
                tracer.adopt([
                    SpanRecord("evaluate", 1, None, task.started,
                               task.busy_seconds, pid, 0, {
                                   "documents": len(group),
                                   "chunks": misses, "evaluate_s": evaluate,
                                   "tuples": sum(map(len, relations))}),
                    SpanRecord("split", 2, 1, task.started, split, pid, 0),
                    SpanRecord("merge", 3, 1, end - merge, merge, pid, 0),
                ], parent_id=span.span_id)
            metrics.merge(task.metrics)
            for name, delta in zip(KERNEL_COUNTERS, task.kernel):
                kernel_metrics().counter(name).inc(delta)
            metrics.counter("engine.worker_busy_seconds",
                            pid=task.pid).inc(task.busy_seconds)
            metrics.counter("engine.worker_chunks",
                            pid=task.pid).inc(misses)
            # Measured from this batch's submission, so by design it
            # includes the time a task queued behind the tasks of the
            # batches submitted before it (the engine's look-ahead).
            queue_wait.observe(max(0.0, task.started - pending.submitted))
            pending.deadline.check()
            waiting = clock()
        metrics.histogram("scheduler.collect_wait_seconds").observe(blocked)
        return resolved

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
        distinct chunk text missing from the cache is evaluated once —
        even when it repeats within this batch — and stored for future
        batches and runs (pooled: once per worker, in its own cache).

        ``deadline`` is checked cooperatively between evaluation
        batches (never mid-chunk): an expired deadline raises
        :class:`repro.errors.DeadlineExceededError`, results already
        evaluated stay cached, and the pool keeps running — the next
        ``run`` on this scheduler proceeds normally.
        """
        return self.collect(
            self.submit(runner, documents, cache, namespace, deadline))
