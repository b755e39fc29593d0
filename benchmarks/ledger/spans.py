"""Harness-owned spans around the calls into each layer.

The ledger measures layers *from outside*: the replay pass brackets
every call into a layer's public function in a span recorded here
(name, start, end, parent, workload).  Spans stay in memory and are
written out once, as Chrome-trace JSON, when the run ends.

The same interval arithmetic serves the program's own trace: a span's
**self time** is its duration minus the part of it that its direct
children cover (the union of their intervals, so parallel worker spans
are not subtracted twice).  Summing ``Tracer.phase_durations()``
instead double-counts every nested phase (``schedule`` contains
``evaluate`` and ``merge``).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    workload: str
    pid: int = field(default_factory=os.getpid)


class Recorder:
    """Collects nested spans for one workload (single-threaded use)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        span = Span(name, time.perf_counter(), 0.0, next(self._ids),
                    parent, self.workload)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float,
            parent: Optional[Span] = None) -> Span:
        """Record a span from timestamps taken elsewhere (the timed
        loops keep bare timestamps; spans are built afterwards)."""
        span = Span(name, start, end, next(self._ids),
                    parent.span_id if parent is not None else None,
                    self.workload)
        self.spans.append(span)
        return span

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]


def _covered(start: float, end: float,
             intervals: Iterable[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of intervals."""
    covered = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def self_times(spans: Iterable[object]) -> Dict[str, float]:
    """Self seconds per span name.

    Works on anything with ``name``, ``span_id``, ``parent_id``,
    ``start`` and ``end`` — the harness's own :class:`Span` and the
    program's ``SpanRecord`` alike.
    """
    spans = list(spans)
    children: Dict[object, List[tuple]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(
            (span.start, span.end))
    totals: Dict[str, float] = {}
    for span in spans:
        own = (span.end - span.start) - _covered(
            span.start, span.end, children.get(span.span_id, ()))
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def root_seconds(spans: Iterable[object]) -> float:
    """Seconds covered by spans that have no recorded parent."""
    spans = list(spans)
    known = {span.span_id for span in spans}
    roots = [(span.start, span.end) for span in spans
             if span.parent_id not in known]
    if not roots:
        return 0.0
    return _covered(min(r[0] for r in roots), max(r[1] for r in roots),
                    roots)


def write_chrome_trace(path: str, spans: Iterable[Span]) -> None:
    """Complete ("X") events, microseconds, loadable in Perfetto."""
    events = [
        {
            "name": span.name, "ph": "X", "cat": span.workload,
            "ts": span.start * 1e6, "dur": (span.end - span.start) * 1e6,
            "pid": span.pid, "tid": 0,
            "args": {"workload": span.workload, "span_id": span.span_id,
                     "parent_id": span.parent_id},
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
