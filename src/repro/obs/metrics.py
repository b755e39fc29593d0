"""Counters, gauges and fixed-bucket histograms: the :class:`Metrics`
registry.

Where :mod:`repro.obs.trace` answers *when* each phase ran, the
metrics registry answers *how much* — chunks evaluated, certification
seconds, lazy-DFA states built, prune decisions, chunk-evaluation
latency distributions.  Three instrument kinds cover the pipeline:

* :class:`Counter` — monotonically increasing totals (float-valued, so
  accumulated seconds are counters too);
* :class:`Gauge` — point-in-time values (cache sizes);
* :class:`Histogram` — fixed-bucket latency/size distributions whose
  bucket counts, sum and count merge exactly across registries, which
  is what lets registries recorded apart be combined into one.

Instruments are identified by name plus optional labels, Prometheus
style, and registries are **mergeable**: counters and histograms sum,
gauges keep the maximum.  Registries pickle (the lock is dropped and
rebuilt), so a registry travels between processes like any other
value.

>>> metrics = Metrics()
>>> metrics.counter("chunks", kind="evaluated").inc(3)
>>> metrics.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)
>>> snapshot = metrics.snapshot()
>>> snapshot['chunks{kind="evaluated"}']
3
>>> snapshot["latency"]["count"]
1

The engine derives :class:`repro.engine.stats.EngineStats` from its
registry (:meth:`repro.engine.stats.EngineStats.from_metrics`), so the
flat stats view and the metrics can never disagree.  The compiled
kernel reports into a process-global registry
(:func:`kernel_metrics`), since lowering happens below any engine.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): ~log-spaced from 10µs to 10s,
#: covering chunk evaluation, certification and queue waits alike.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
)


def _key(name: str, labels: Dict[str, object]) -> str:
    """The canonical instrument key: ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing total (int or float)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def _merge(self, other: "Counter") -> None:
        self.inc(other.value)

    def _export(self) -> object:
        return self.value

    def __getstate__(self):
        return (self.name, self.labels, self.value)

    def __setstate__(self, state):
        self.name, self.labels, self.value = state
        self._lock = threading.Lock()


class Gauge:
    """A point-in-time value; merges keep the maximum."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Dict[str, object]) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def _merge(self, other: "Gauge") -> None:
        with self._lock:
            self.value = max(self.value, other.value)

    def _export(self) -> object:
        return self.value

    def __getstate__(self):
        return (self.name, self.labels, self.value)

    def __setstate__(self, state):
        self.name, self.labels, self.value = state
        self._lock = threading.Lock()


class Histogram:
    """A fixed-bucket distribution: counts per upper bound, sum, count.

    ``buckets`` are the finite upper bounds (ascending); an implicit
    ``+Inf`` bucket catches the rest.  Two histograms with identical
    bounds merge exactly (bucket-wise sums): the merged histogram
    equals the one a single registry would have recorded.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count",
                 "_lock")

    def __init__(
        self,
        name: str,
        labels: Dict[str, object],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)   # +Inf bucket last
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1

    def observe_many(self, values: Sequence[float]) -> None:
        """``observe`` each value, under one lock: what a batch of
        chunk latencies costs once instead of once per chunk."""
        buckets = self.buckets
        indexes = [bisect.bisect_left(buckets, value) for value in values]
        with self._lock:
            counts = self.counts
            for index in indexes:
                counts[index] += 1
            self.sum += sum(values)
            self.count += len(indexes)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the ``q``-quantile.

        Always finite: an empty histogram reports ``0.0``, ``q=0``
        reports the first *occupied* bucket's bound (the smallest
        bound any observation could sit under, never an empty leading
        bucket), and a quantile landing in the ``+Inf`` overflow
        bucket is clamped to the largest finite bound — a conservative
        *lower* estimate, but one that keeps p99 dashboards plottable
        instead of propagating ``inf``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target and cumulative > 0:
                return (self.buckets[index] if index < len(self.buckets)
                        else self.buckets[-1])
        return self.buckets[-1]

    def _merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"differ ({self.buckets} vs {other.buckets})"
            )
        with self._lock:
            for index, count in enumerate(other.counts):
                self.counts[index] += count
            self.sum += other.sum
            self.count += other.count

    def _export(self) -> object:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "buckets": {
                ("+Inf" if index == len(self.buckets)
                 else repr(self.buckets[index])): count
                for index, count in enumerate(self.counts)
            },
        }

    def __getstate__(self):
        return (self.name, self.labels, self.buckets, self.counts,
                self.sum, self.count)

    def __setstate__(self, state):
        (self.name, self.labels, self.buckets, self.counts,
         self.sum, self.count) = state
        self._lock = threading.Lock()


class Metrics:
    """A registry of named instruments; mergeable and picklable.

    ``counter``/``gauge``/``histogram`` create on first use and return
    the existing instrument afterward, so call sites never check for
    existence.  Labels distinguish instruments sharing a name
    (``counter("index.pruned", plan="ab12")``).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------

    def _get(self, kind, name: str, labels: Dict[str, object], **extra):
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = kind(name, labels, **extra)
                    self._instruments[key] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        return self._get(Histogram, name, labels,
                         buckets=tuple(buckets or DEFAULT_BUCKETS))

    def value(self, name: str, default: float = 0, **labels: object):
        """The current value of a counter/gauge (``default`` when the
        instrument was never touched) — the read side
        :meth:`repro.engine.stats.EngineStats.from_metrics` uses."""
        instrument = self._instruments.get(_key(name, labels))
        if instrument is None:
            return default
        return instrument.value

    def instruments(self) -> List[object]:
        with self._lock:
            return list(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    # ------------------------------------------------------------------
    # Merging and shipping
    # ------------------------------------------------------------------

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold another registry into this one (in place).

        Counters and histograms sum; gauges keep the maximum;
        instruments missing here are added as copies.  Returns
        ``self`` for chaining.
        """
        for instrument in other.instruments():
            key = _key(instrument.name, instrument.labels)
            mine = self._instruments.get(key)
            if mine is None:
                if isinstance(instrument, Histogram):
                    mine = self.histogram(instrument.name,
                                          buckets=instrument.buckets,
                                          **instrument.labels)
                elif isinstance(instrument, Gauge):
                    mine = self.gauge(instrument.name,
                                      **instrument.labels)
                else:
                    mine = self.counter(instrument.name,
                                        **instrument.labels)
            mine._merge(instrument)
        return self

    def __getstate__(self):
        return {"instruments": self._instruments}

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self._instruments = state["instruments"]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Every instrument's current value, keyed ``name{labels}``.

        Counters and gauges export their value; histograms export a
        ``{count, sum, mean, buckets}`` dict.
        """
        return {
            _key(i.name, i.labels): i._export()
            for i in self.instruments()
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition (see
        :func:`repro.obs.export.to_prometheus`)."""
        from repro.obs.export import to_prometheus

        return to_prometheus(self)

    def __repr__(self) -> str:
        return f"Metrics({len(self)} instruments)"


# ----------------------------------------------------------------------
# The process-global kernel registry
# ----------------------------------------------------------------------

#: Lowering and lazy-DFA construction happen below any engine (inside
#: :mod:`repro.automata.compiled`), so the kernel reports into one
#: process-global registry rather than threading a handle through every
#: automaton call.  Read it with :func:`kernel_metrics`; exporters
#: (CLI ``--metrics``, ``ResultSet.explain()``) merge it alongside the
#: engine's own registry.
_KERNEL = Metrics()


def kernel_metrics() -> Metrics:
    """The process-global registry the compiled kernel reports into."""
    return _KERNEL
