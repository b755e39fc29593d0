"""Work-queue scheduling of chunk batches over a process pool.

The scheduler receives per-document chunk lists, consults the chunk
cache, fans the *missing* texts out over a worker pool, and merges the
shifted span-tuples back per document — the engine-side realization of
``P = P_S o S``: once certified, chunks are context-free units of work
that can be executed anywhere, in any order, and shared between
documents.

``workers <= 1`` degrades to in-process sequential evaluation (no pool
overhead), which is also the configuration benchmarks use to isolate
caching effects from parallelism.

How a runner reaches a worker and what a pool task is belong to
:class:`repro.runtime.executor.WorkerPool`; this side decides what the
telemetry every task returns means (:mod:`repro.obs`): chunk latency,
per-worker busy time and queue wait always land in the metrics
registry, and an enabled tracer additionally gets one ``evaluate``
span per task.  Tracing never changes what the workers run.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.spans import Span, SpanTuple
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


class Scheduler:
    """Fan unique chunk texts over a pool; merge results per document.

    ``workers`` is the process-pool size (``0``/``1`` = run in
    process).  ``batch_size`` is how many *documents* the engine feeds
    per scheduler pass — it bounds peak memory and sets the in-pass
    dedup granularity; the pool sizes its own tasks.

    ``tracer``/``metrics`` are the engine's observability handles: the
    scheduler brackets its passes in ``evaluate``/``merge`` spans and
    folds every pool task's telemetry into the registry (see the module
    docstring).

    The pool persists across batches and runs, whatever the tracer
    does meanwhile; swapping to a different runner *drains* the old
    pool and :meth:`close` is the hard shutdown.
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

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    def _evaluate_missing(
        self,
        runner: SpannerLike,
        texts: Sequence[str],
        deadline: Deadline = NEVER,
    ) -> List[Set[SpanTuple]]:
        metrics, tracer = self.metrics, self.tracer
        latency = metrics.histogram("engine.chunk_eval_seconds")
        if self.workers <= 1 or not texts:
            deadline.check()
            return evaluate_chunks(runner, texts, latency, deadline.check)
        queue_wait = metrics.histogram("scheduler.queue_wait_seconds")
        parent_id = tracer.current_id()
        pool = self._pool_for(runner)
        submitted = time.time()
        results: List[Set[SpanTuple]] = []
        for group, task in pool.evaluate(texts):
            if tracer.enabled:
                done = len(results)
                tracer.adopt([SpanRecord(
                    name="evaluate", span_id=0, parent_id=None,
                    start=task.started, duration=task.busy_seconds,
                    pid=task.pid, tid=0, attributes={
                        "chunks": len(group),
                        "chars": sum(map(
                            len, texts[done:done + len(group)])),
                        "tuples": sum(map(len, group)),
                    },
                )], parent_id=parent_id)
            results.extend(group)
            for seconds in task.chunk_seconds:
                latency.observe(seconds)
            metrics.counter("engine.worker_busy_seconds",
                            pid=task.pid).inc(task.busy_seconds)
            metrics.counter("engine.worker_chunks",
                            pid=task.pid).inc(len(group))
            # Measured from this pass's submission: later tasks of a
            # pass wait behind its earlier ones.
            queue_wait.observe(max(0.0, task.started - submitted))
            deadline.check()
        return results

    def run(
        self,
        runner: SpannerLike,
        documents: Sequence[DocumentChunks],
        cache: ChunkCache,
        namespace: str,
        deadline: Deadline = NEVER,
    ) -> Dict[str, Set[SpanTuple]]:
        """Evaluate every document's chunks, deduplicated via ``cache``.

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
        deadline.check()
        # Pass 1: consult the cache; collect distinct missing texts in
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
                    continue
                cached = cache.lookup(namespace, text)
                seen[text] = cached
                if cached is None:
                    missing.append(text)

        # Pass 2: fan the missing texts out (batched over the pool).
        with self.tracer.span(
            "evaluate", unique_missing=len(missing),
            instances=chunk_instances,
            workers=self.workers if self.workers > 1 else 0,
        ):
            for text, results in zip(
                missing, self._evaluate_missing(runner, missing, deadline)
            ):
                seen[text] = cache.store(namespace, text, results)

        # Pass 3: merge shifted tuples back per document.
        with self.tracer.span("merge", documents=len(documents)) as span:
            resolved: Dict[str, Set[SpanTuple]] = {}
            tuples_merged = 0
            for doc_id, chunks in documents:
                merged: Set[SpanTuple] = resolved.setdefault(doc_id, set())
                for span_, text in chunks:
                    results = seen[text]
                    if results:
                        merged.update(t.shift(span_) for t in results)
                tuples_merged += len(merged)
            span.set("tuples", tuples_merged)

        self.last_batch = ScheduledBatch(
            len(documents), chunk_instances, len(missing)
        )
        return resolved
