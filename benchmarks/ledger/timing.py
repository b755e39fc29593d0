"""Clocks, resource accounting and summary statistics for the ledger.

**The calibrated clock.**  On a shared 2-core sandbox the same pass
takes anywhere from 235 ms to 550 ms depending on what the host is
doing; processor time moves with wall time, so it is the processor's
speed that drifts, over tens of seconds.  The median of an 8-second
run then differs by 20-30 % from one run to the next, which no
regression bound survives.  So every timed operation is bracketed by
:func:`spin`, a fixed pure-Python loop owned by the harness, and its
duration is divided by :func:`machine_factor` — how much slower than
the reference the machine ran the loop just then.  End-to-end times
are therefore *seconds at reference speed* (the spin taking
``SPIN_REFERENCE_S``).  On a recorded 5-minute series this took the
run-to-run spread of the median pass time from 0.18-0.32 down to
0.03-0.07.  Per-layer seconds are left raw; ``bench.machine_factor``
reports the factor so either can be converted.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence

clock = time.perf_counter

SPIN_ITERATIONS = 100_000
#: What :func:`spin` takes at reference speed (about this sandbox's
#: median); changing it rescales every end-to-end time.
SPIN_REFERENCE_S = 0.005


def spin() -> float:
    """Seconds the calibration loop took just now."""
    started = clock()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i % 7
    return clock() - started


def machine_factor(spin_before: float, spin_after: float) -> float:
    """How much slower than reference the machine ran between two
    :func:`spin` readings (1.0 = reference speed).  Divide a measured
    duration by it."""
    return (spin_before + spin_after) / 2 / SPIN_REFERENCE_S


@dataclass(frozen=True)
class Sample:
    """One reported number: the value, how many observations stand
    behind it, and their quartiles (``n == 1``: a single reading)."""

    value: float
    n: int = 1
    q1: float = 0.0
    q3: float = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"value": self.value, "n": self.n,
                "q1": self.q1, "q3": self.q3}


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def median_of(values: Sequence[float], scale: float = 1.0) -> Sample:
    """The median of ``values`` (times ``scale``) with its quartiles."""
    q1, median, q3 = quartiles(values)
    return Sample(median * scale, len(values), q1 * scale, q3 * scale)


def rate_of(amount: float, seconds: Sequence[float]) -> Sample:
    """``amount`` per median second; quartiles map through the inverse,
    so the slow quartile of the times is the low quartile of the rate."""
    q1, median, q3 = quartiles(seconds)
    return Sample(amount / median, len(seconds), amount / q3, amount / q1)


def percentile_of(values: Sequence[float], percent: float,
                  scale: float = 1.0) -> Sample:
    """The ``percent``-th percentile by nearest rank.  Callers size the
    run so that at least ten observations lie beyond it; ``n`` is
    reported so a reader can check."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(len(ordered) * percent / 100.0))
    value = ordered[rank] * scale
    return Sample(value, len(ordered), value, value)


class CalibratedTimer:
    """Times operations on the calibrated clock: each is followed by a
    :func:`spin`, and shares the one before it with its predecessor."""

    def __init__(self) -> None:
        self._spin = spin()
        self.factors: List[float] = []

    def run(self, operation) -> tuple:
        """``(result, seconds, CPU seconds, factor)`` of ``operation()``,
        both figures at reference speed.  Divide by ``factor`` any
        interval the operation clocked itself."""
        cpu_before = cpu_seconds()
        started = clock()
        result = operation()
        seconds = clock() - started
        cpu = cpu_seconds() - cpu_before
        after = spin()
        factor = machine_factor(self._spin, after)
        self._spin = after
        self.factors.append(factor)
        return result, seconds / factor, cpu / factor, factor


def child_pids() -> List[int]:
    """This process's children not yet waited for, from ``/proc``
    (none where there is no ``/proc``)."""
    pids: List[int] = []
    try:
        for task in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.extend(map(int, handle.read().split()))
    except OSError:
        return []
    return pids


def _live_children_cpu() -> float:
    """User plus system seconds of this process's live children, from
    ``/proc``.  Reaped children are in ``RUSAGE_CHILDREN`` instead, so
    the two never overlap."""
    ticks = 0
    for pid in child_pids():
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # Fields after the parenthesised command name; utime
                # and stime are the 14th and 15th fields overall.
                fields = handle.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            continue
    return ticks / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """User plus system CPU of this process and all its children, live
    or reaped, so far.  Monotone: a child's time moves from the
    ``/proc`` part to ``RUSAGE_CHILDREN`` when it is waited for."""
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (time.process_time() + reaped.ru_utime + reaped.ru_stime
            + _live_children_cpu())


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus the largest reaped child, in
    MB (Linux reports KiB).  Read it after the children have exited."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0
