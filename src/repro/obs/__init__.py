"""Observability: tracing spans, metrics, and exporters.

The instrumentation substrate under the whole pipeline.  One
:class:`Tracer` brackets every phase of a run in nestable spans
(``certify``, ``compile``, ``split``, ``prefilter``, ``schedule``,
``evaluate``, ``merge``) — including one span per pool task, carrying
the worker's pid and built from the telemetry the task returns — and one
:class:`Metrics` registry accumulates the counters, gauges and
mergeable fixed-bucket histograms behind
:class:`repro.engine.stats.EngineStats`.

Enabling it from the fluent API::

    results = Q(spanner).split_by("tokens").workers(2).traced().over(corpus)
    results.materialize()
    results.explain()["trace"]          # per-phase durations
    print(results.trace.render_tree())  # human-readable span tree
    results.trace.export_chrome("run.json")   # open in Perfetto

Exporters: Chrome trace-event JSON (:meth:`Tracer.export_chrome`,
:func:`repro.obs.export.to_chrome_trace`), a span-tree renderer
(:meth:`Tracer.render_tree`), and Prometheus text exposition
(:meth:`Metrics.to_prometheus`).  A disabled tracer (the default
everywhere) is a shared no-op whose cost is one attribute check per
phase, so production paths keep their speed until tracing is asked
for.

A running service is read through three surfaces: the registry
(``GET /metrics``), the :class:`FlightRecorder` (``/debug/queries``,
``/debug/slow``) and the service's ``inflight()`` view
(``/debug/inflight``); :mod:`repro.obs.log` narrates the same events.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    kernel_metrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    PHASES,
    SpanRecord,
    Tracer,
    phase_durations,
)
from repro.obs.export import (
    render_span_tree,
    to_chrome_trace,
    to_prometheus,
    validate_chrome_trace,
)
from repro.obs.log import (
    EventLog,
    configure_event_log,
    event_log,
)
from repro.obs.flight import (
    FlightRecorder,
    QueryRecord,
    spans_to_dicts,
)

__all__ = [
    "Tracer",
    "SpanRecord",
    "NULL_TRACER",
    "PHASES",
    "phase_durations",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "kernel_metrics",
    "to_chrome_trace",
    "render_span_tree",
    "to_prometheus",
    "validate_chrome_trace",
    "EventLog",
    "event_log",
    "configure_event_log",
    "FlightRecorder",
    "QueryRecord",
    "spans_to_dicts",
]
