"""Shared helpers for the benchmark harness.

Every benchmark prints a paper-vs-measured row so that running
``pytest benchmarks/bench_*.py -s`` regenerates the full comparison
table.

Each :func:`report` call also persists its row — plus any structured
``metrics`` the benchmark passes (workload shape, wall-clock seconds,
speedups) — into ``benchmarks/results/BENCH_<name>.json``, one file
per experiment family (``BENCH_E1.json``, ``BENCH_T1.json``, ...), so
the performance trajectory is tracked as data across PRs instead of
living only in commit messages.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path
from typing import Callable, Optional

import pytest

#: Where the machine-readable benchmark rows land (committed with the
#: repo so trajectories diff across PRs).
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def timed(function: Callable, repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``function()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_name(experiment: str) -> str:
    """The experiment family of a report label: ``"E1 n-gram"`` ->
    ``"E1"`` (the ``<name>`` of its ``BENCH_<name>.json``)."""
    head = experiment.split()[0] if experiment.split() else "MISC"
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "", head)
    return slug.upper() or "MISC"


def write_bench_json(name: str, experiment: str, entry: dict) -> Path:
    """Merge one row into ``BENCH_<name>.json`` (keyed by label)."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    data = {"benchmark": name, "entries": {}}
    if path.exists():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            pass
    data.setdefault("entries", {})[experiment] = entry
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
    return path


def report(
    experiment: str,
    paper_claim: str,
    measured: str,
    metrics: Optional[dict] = None,
    stats=None,
    tracer=None,
) -> None:
    """Emit one comparison row (captured by ``-s`` runs) and persist
    it (with optional structured ``metrics``) as JSON.

    ``stats`` takes an :class:`repro.engine.stats.EngineStats` (or an
    object with ``snapshot()``) and lands its full snapshot under
    ``engine_stats``, so every e-series benchmark records the same
    counter vocabulary; ``tracer`` takes an enabled
    :class:`repro.obs.trace.Tracer` and lands its per-phase durations
    under ``trace_phases``.
    """
    print(f"\n[{experiment}] paper: {paper_claim} | measured: {measured}",
          file=sys.stderr)
    entry = {"paper_claim": paper_claim, "measured": measured}
    if metrics:
        entry.update(metrics)
    if stats is not None:
        try:
            entry["engine_stats"] = stats.snapshot()
        except (AttributeError, TypeError):
            pass
    if tracer is not None and getattr(tracer, "enabled", False):
        entry["trace_phases"] = tracer.phase_durations()
        entry["trace_spans"] = len(tracer)
    try:
        write_bench_json(_bench_name(experiment), experiment, entry)
    except (OSError, TypeError, ValueError):
        pass  # reporting must never fail a benchmark run


@pytest.fixture
def reporter():
    return report
