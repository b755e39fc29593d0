"""The query flight recorder: the last N queries, kept for the asking.

A resident service answers thousands of queries and throws each one's
story away the moment the result ships.  The
:class:`FlightRecorder` keeps that story: a bounded ring of
:class:`QueryRecord` objects — query fingerprint, tenant, queue-wait
and run seconds, per-phase durations, prune/cache counters, kernel
tier, outcome including the typed error — so ``GET /debug/queries``
can answer "what just happened?" after the fact.

On top of the ring sits the **slow-query log**: queries at or above a
configurable latency threshold — and deadline misses, always — are
retained separately and in full, with the complete span tree the
tracer collected for them (worker-process spans included) and the
certificate's ``explain()`` payload, so the one query that blew its
budget arrives with its own post-mortem attached.

The recorder is thread-safe and passive: it never measures anything
itself.  The :class:`repro.serve.ExtractionService` dispatcher builds
one :class:`QueryRecord` per executed query and hands it over
together with the spans drained for that query; everything expensive
(span snapshot, explain payload) is captured lazily and only for
queries the slow log keeps.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import SpanRecord, phase_durations

#: How many records the slow-query log keeps (the most recent).
KEEP_SLOW = 64


def spans_to_dicts(records: Sequence[SpanRecord]) -> List[Dict[str, object]]:
    """Span records as JSON-friendly dicts (the ``span_tree`` shape)."""
    return [
        {
            "name": record.name,
            "span_id": record.span_id,
            "parent_id": record.parent_id,
            "start": record.start,
            "duration": record.duration,
            "pid": record.pid,
            "tid": record.tid,
            "attributes": dict(record.attributes),
        }
        for record in records
    ]


def _last(records: Deque[QueryRecord],
          limit: Optional[int]) -> List[QueryRecord]:
    if limit is None:
        return list(records)
    if limit < 1:
        raise ValueError("limit must be positive")
    return list(records)[-limit:]


@dataclass
class QueryRecord:
    """One completed (or failed) query, as the flight recorder keeps it.

    ``outcome`` is ``"ok"`` or the typed error's class name
    (``"DeadlineExceededError"``, ``"ServiceClosedError"``, ...);
    ``phases`` are per-phase wall-clock seconds from the spans this
    query produced (empty when the engine ran untraced); ``counters``
    are the engine-counter deltas the query contributed (chunks total/
    pruned/evaluated, cache hits/misses, tuples).  ``pids`` lists every
    process that contributed a span — more than one exactly when pool
    workers did chunk work.  ``span_tree`` and ``explain`` are
    populated only for queries the slow log kept.
    """

    query_id: str
    program: str
    fingerprint: str
    tenant: str
    outcome: str
    error: Optional[str]
    started: float                    # wall-clock seconds (time.time)
    queue_seconds: float
    run_seconds: float
    documents: int
    tuples: int
    deadline_budget: Optional[float]
    kernel_tier: Optional[str] = None
    phases: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    pids: Tuple[int, ...] = ()
    slow: bool = False
    span_tree: Optional[List[Dict[str, object]]] = None
    explain: Optional[Dict[str, object]] = None

    @property
    def total_seconds(self) -> float:
        """Queue wait plus run time: the latency the caller saw."""
        return self.queue_seconds + self.run_seconds

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self, full: bool = False) -> Dict[str, object]:
        """The record as a JSON-friendly dict.

        The summary shape (default) is what ``GET /debug/queries``
        lists; ``full=True`` adds the span tree and explain payload
        (``GET /debug/queries/<id>`` and the slow log).
        """
        payload: Dict[str, object] = {
            "query_id": self.query_id,
            "program": self.program,
            "fingerprint": self.fingerprint,
            "tenant": self.tenant,
            "outcome": self.outcome,
            "error": self.error,
            "started": self.started,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "total_seconds": self.total_seconds,
            "documents": self.documents,
            "tuples": self.tuples,
            "deadline_budget": self.deadline_budget,
            "kernel_tier": self.kernel_tier,
            "phases": dict(self.phases),
            "counters": dict(self.counters),
            "pids": list(self.pids),
            "slow": self.slow,
        }
        if full:
            payload["span_tree"] = self.span_tree
            payload["explain"] = self.explain
        return payload


class FlightRecorder:
    """A thread-safe ring of the last ``capacity`` query records.

    ``slow_threshold`` (seconds, ``None`` = off) routes queries whose
    total latency reaches it into the slow-query log, which keeps the
    last :data:`KEEP_SLOW`; deadline misses go there regardless of
    latency — a missed deadline is *the* query an operator wants the
    full story for.

    ``capture_spans`` declares whether the recorder wants span trees:
    a service attaching a recorder with ``capture_spans=True`` enables
    tracing on its engine so per-phase durations and slow-query span
    trees exist; ``False`` keeps the engine untraced (records carry
    timings and counters, phases stay empty) for minimum overhead.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_threshold: Optional[float] = None,
        capture_spans: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if slow_threshold is not None and slow_threshold < 0:
            raise ValueError("slow_threshold must be non-negative")
        self.capacity = capacity
        self.slow_threshold = slow_threshold
        self.capture_spans = capture_spans
        self._lock = threading.Lock()
        self._recent: Deque[QueryRecord] = deque(maxlen=capacity)
        self._slow: Deque[QueryRecord] = deque(maxlen=KEEP_SLOW)
        self._recorded = 0
        self._slow_recorded = 0

    # ------------------------------------------------------------------
    # Recording (the dispatcher side)
    # ------------------------------------------------------------------

    def is_slow(self, record: QueryRecord) -> bool:
        """Does ``record`` belong in the slow-query log?"""
        if record.outcome == "DeadlineExceededError":
            return True
        return (self.slow_threshold is not None
                and record.total_seconds >= self.slow_threshold)

    def record(
        self,
        record: QueryRecord,
        span_records: Sequence[SpanRecord] = (),
        explain: Optional[Callable[[], Dict[str, object]]] = None,
    ) -> QueryRecord:
        """File one query; returns the (enriched) record.

        ``span_records`` are the spans this query produced (already
        drained from the tracer); they populate the record's
        ``phases`` and ``pids`` always, and its full ``span_tree``
        when the slow log keeps it.  ``explain`` is a zero-argument
        callable producing the certificate/prefilter report — invoked
        only for slow queries, so the cheap path never builds it.
        """
        if span_records:
            if not record.phases:
                record.phases = phase_durations(span_records)
            record.pids = tuple(sorted(
                {span.pid for span in span_records}))
        record.slow = self.is_slow(record)
        if record.slow:
            if span_records and record.span_tree is None:
                record.span_tree = spans_to_dicts(span_records)
            if explain is not None and record.explain is None:
                try:
                    record.explain = explain()
                except Exception as error:  # never fail the query path
                    record.explain = {"error": type(error).__name__,
                                      "detail": str(error)}
        with self._lock:
            self._recent.append(record)
            self._recorded += 1
            if record.slow:
                self._slow.append(record)
                self._slow_recorded += 1
        return record

    # ------------------------------------------------------------------
    # Reading (any thread)
    # ------------------------------------------------------------------

    def recent(self, limit: Optional[int] = None) -> List[QueryRecord]:
        """The retained records (the last ``limit``), most recent last."""
        with self._lock:
            return _last(self._recent, limit)

    def slow(self, limit: Optional[int] = None) -> List[QueryRecord]:
        """The slow-query log (the last ``limit``), most recent last."""
        with self._lock:
            return _last(self._slow, limit)

    def get(self, query_id: str) -> Optional[QueryRecord]:
        """Look a record up by id (slow log first: it lives longer)."""
        with self._lock:
            for record in reversed(self._slow):
                if record.query_id == query_id:
                    return record
            for record in reversed(self._recent):
                if record.query_id == query_id:
                    return record
        return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)

    def describe(self) -> Dict[str, object]:
        """The recorder's configuration and retention state."""
        with self._lock:
            retained, slow_retained = len(self._recent), len(self._slow)
            recorded, slow_recorded = self._recorded, self._slow_recorded
        return {
            "capacity": self.capacity,
            "keep_slow": KEEP_SLOW,
            "slow_threshold": self.slow_threshold,
            "capture_spans": self.capture_spans,
            "recorded": recorded,
            "retained": retained,
            "slow_recorded": slow_recorded,
            "slow_retained": slow_retained,
        }

    def __repr__(self) -> str:
        return (f"FlightRecorder({len(self)}/{self.capacity} records, "
                f"{len(self.slow())} slow)")
