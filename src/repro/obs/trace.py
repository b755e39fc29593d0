"""Nestable, thread-safe tracing spans: the :class:`Tracer`.

Every layer of the pipeline brackets its phases in spans —
``certify``, ``compile``, ``split``, ``prefilter``, ``schedule``,
``evaluate``, ``merge`` — so a single traced run answers the paper's
where-does-the-time-go questions: how long certification took, how
many chunks each batch evaluated, what each pool worker was busy
with.  Spans nest through a per-thread stack (a span opened while
another is active becomes its child), carry free-form attributes, and
record wall-clock start plus a monotonic duration, process id and
thread id — enough to render a span tree
(:func:`repro.obs.export.render_span_tree`) or a Chrome trace
(:func:`repro.obs.export.to_chrome_trace`) without post-processing.

A *disabled* tracer (``Tracer(enabled=False)``, the engine default) is
a true no-op: :meth:`Tracer.span` returns a shared inert handle, so an
untraced hot path pays one attribute check per phase, not per chunk.

>>> tracer = Tracer()
>>> with tracer.span("certify", program="demo") as span:
...     with tracer.span("compile"):
...         pass
...     span.set("cache_hit", False)
>>> [record.name for record in tracer.records()]
['compile', 'certify']
>>> tracer.records()[0].parent_id == tracer.records()[1].span_id
True

Spans for work done in *other processes* arrive as plain
:class:`SpanRecord` lists — the scheduler builds one per pool task
from the telemetry the task returns — and are grafted onto the trace
with :meth:`Tracer.adopt`, which re-parents root spans under the
scheduling span that shipped the work.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

#: The canonical phase names the pipeline brackets itself with; the
#: per-phase rollups (:meth:`Tracer.phase_durations`) and the span-tree
#: renderer treat these as the top-level vocabulary, but any span name
#: is legal.
PHASES = (
    "certify", "compile", "split", "prefilter", "schedule", "evaluate",
    "merge",
)


@dataclass
class SpanRecord:
    """One finished span, as stored in (and shipped between) tracers.

    ``start`` is wall-clock seconds (``time.time()``, comparable across
    processes on one host); ``duration`` is measured with the monotonic
    ``time.perf_counter`` so it never goes negative under clock steps.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    duration: float
    pid: int
    tid: int
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


class _NullSpan:
    """The shared inert span handle of a disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, key: str, value: object) -> None:
        return None

    def inc(self, key: str, amount: int = 1) -> None:
        return None

    @property
    def span_id(self) -> Optional[int]:
        return None


NULL_SPAN = _NullSpan()


def phase_durations(records: Sequence[SpanRecord]) -> Dict[str, float]:
    """Total seconds per span name over an arbitrary record list.

    The module-level form of :meth:`Tracer.phase_durations`, usable on
    records that left their tracer (drained buffers, flight-recorder
    snapshots).  Sums the *outermost* span of each name: a span nested
    under a same-name ancestor (per-task worker ``evaluate`` spans
    under the batch ``evaluate`` phase) is already covered by that
    ancestor's duration and is excluded, so each phase total is
    wall-clock time, not double-counted work.
    """
    by_id = {record.span_id: record for record in records}
    totals: Dict[str, float] = {}
    for record in records:
        parent = by_id.get(record.parent_id)
        shadowed = False
        while parent is not None:
            if parent.name == record.name:
                shadowed = True
                break
            parent = by_id.get(parent.parent_id)
        if not shadowed:
            totals[record.name] = (totals.get(record.name, 0.0)
                                   + record.duration)
    return totals


class _ActiveSpan:
    """A live span: context manager and attribute sink."""

    __slots__ = ("_tracer", "_record", "_clock_start")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record
        self._clock_start = 0.0

    @property
    def span_id(self) -> int:
        return self._record.span_id

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute on this span."""
        self._record.attributes[key] = value

    def inc(self, key: str, amount: int = 1) -> None:
        """Accumulate a numeric attribute (a span-local counter)."""
        attributes = self._record.attributes
        attributes[key] = attributes.get(key, 0) + amount

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self._record)
        self._clock_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._record.duration = time.perf_counter() - self._clock_start
        if exc_type is not None:
            self._record.attributes["error"] = exc_type.__name__
        self._tracer._pop(self._record)


class Tracer:
    """Collects nested spans; thread-safe; cheap when disabled.

    One tracer serves a whole engine: spans opened on any thread nest
    through that thread's own stack, and finished records append to one
    shared buffer under a lock.  Span ids are unique within the tracer;
    records adopted from other processes are renumbered on arrival so
    uniqueness survives merging (:meth:`adopt`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: object):
        """A context manager bracketing one phase.

        ``attributes`` seed the span's attribute dict; more can be
        attached through the handle (:meth:`_ActiveSpan.set`,
        :meth:`_ActiveSpan.inc`).  On a disabled tracer this returns
        the shared :data:`NULL_SPAN` without allocating anything.
        """
        if not self.enabled:
            return NULL_SPAN
        record = SpanRecord(
            name=name,
            span_id=next(self._ids),
            parent_id=self.current_id(),
            start=time.time(),
            duration=0.0,
            pid=os.getpid(),
            tid=threading.get_ident(),
            attributes=dict(attributes),
        )
        return _ActiveSpan(self, record)

    def current_id(self) -> Optional[int]:
        """The innermost open span's id on this thread (or ``None``)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    def _push(self, record: SpanRecord) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        # A span created on one thread but entered on another (rare,
        # but legal) parents under the *entering* thread's stack.
        if stack:
            record.parent_id = stack[-1].span_id
        stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self._records.append(record)

    # ------------------------------------------------------------------
    # Reading, shipping, merging
    # ------------------------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """A snapshot of every finished span (open spans excluded)."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def drain(self) -> List[SpanRecord]:
        """Take the finished spans, leaving the tracer empty.

        The per-query collection primitive: the service drains the
        engine's tracer after each query to file that query's spans
        with its flight record.
        """
        with self._lock:
            records, self._records = self._records, []
        return records

    def adopt(
        self,
        records: Sequence[SpanRecord],
        parent_id: Optional[int] = None,
    ) -> List[SpanRecord]:
        """Graft spans recorded elsewhere onto this trace.

        Span ids are renumbered into this tracer's id space (internal
        parent/child links are preserved); records whose parent is not
        part of ``records`` — each worker's root spans — are
        re-parented under ``parent_id``.  Returns the renumbered
        records, already appended to the trace.
        """
        if not self.enabled or not records:
            return []
        mapping = {record.span_id: next(self._ids) for record in records}
        adopted = []
        for record in records:
            adopted.append(SpanRecord(
                name=record.name,
                span_id=mapping[record.span_id],
                parent_id=mapping.get(record.parent_id, parent_id),
                start=record.start,
                duration=record.duration,
                pid=record.pid,
                tid=record.tid,
                attributes=dict(record.attributes),
            ))
        with self._lock:
            self._records.extend(adopted)
        return adopted

    # ------------------------------------------------------------------
    # Rollups and exports
    # ------------------------------------------------------------------

    def phase_durations(self) -> Dict[str, float]:
        """Total seconds per span name (the ``explain()`` rollup).

        See the module-level :func:`phase_durations` for the shadowing
        semantics (same-name descendants are not double-counted).
        """
        return phase_durations(self.records())

    def to_chrome_trace(self) -> Dict[str, object]:
        """The trace as a Chrome trace-event JSON object (see
        :func:`repro.obs.export.to_chrome_trace`)."""
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(self.records())

    def export_chrome(self, path: str) -> None:
        """Write the Chrome trace-event JSON to ``path`` (loadable in
        Perfetto or ``chrome://tracing``)."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1,
                      default=str)
            handle.write("\n")

    def render_tree(self) -> str:
        """The human-readable span tree (see
        :func:`repro.obs.export.render_span_tree`)."""
        from repro.obs.export import render_span_tree

        return render_span_tree(self.records())

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self)} spans)"


#: The shared disabled tracer: what every layer defaults to when the
#: caller did not ask for tracing.  Never records anything, so sharing
#: one instance across engines is safe.
NULL_TRACER = Tracer(enabled=False)
