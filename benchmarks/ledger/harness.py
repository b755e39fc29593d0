"""Run one workload once: generate, set up, measure, verify, replay.

This is what the driver's command runs.  The last line on standard
output is the contract's JSON object; everything before it is the
human-readable ledger (every metric by name with unit, sample count
and quartiles).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import tempfile
import time
from typing import Dict, List, Optional

from benchmarks.ledger import catalog
from benchmarks.ledger.spans import Recorder, write_chrome_trace
from benchmarks.ledger.timing import (
    CalibratedTimer,
    Sample,
    child_pids,
    clock,
    median_of,
    peak_rss_mb,
)

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space (index directories, the runner call log) and the
#: default ``--out``; ignored by git.
DEFAULT_OUT = os.path.join(LEDGER_DIR, "out")


#: How long a child gets to end after SIGTERM before it is killed.
GRACE_SECONDS = 5.0


def _signal(pid: int, number: int) -> None:
    try:
        os.kill(pid, number)
    except ProcessLookupError:   # already gone
        pass


def _wait(pid: int, seconds: float) -> bool:
    """Reap ``pid`` if it ends within ``seconds``; ``True`` once it is
    gone (reaped here or, before us, by whoever started it)."""
    deadline = clock() + seconds
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:
            return True
        if clock() >= deadline:
            return False
        time.sleep(0.005)


def stop_children() -> None:
    """Stop every process this one started and wait until each has
    ended.  Called on every path out of a run.

    ``engine.close()`` and the server's teardown have already stopped
    and joined the pools and the server they own.  What they leave is
    ``multiprocessing``'s resource tracker, spawned by the first shm
    publish (``workers(2)``): it ends when its pipe closes, which
    without this is at interpreter exit — so it outlives the run by a
    moment, and the driver counts that as a process left running.
    Anything else still alive (a failed run's pool, say) holds that
    pipe too, so it is stopped first.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    others = [pid for pid in child_pids()
              if pid != getattr(tracker, "_pid", None)]
    for pid in others:
        _signal(pid, signal.SIGTERM)
    for pid in others:
        if not _wait(pid, GRACE_SECONDS):
            _signal(pid, signal.SIGKILL)
            _wait(pid, GRACE_SECONDS)
    # Closes the pipe and waits for the tracker (a no-op if none ran).
    tracker._stop()


def make_workload(name: str, scale: float):
    # Imported here so that --manifest and --compare work without the
    # program under test on the path.
    from benchmarks.ledger.batch import SPECS, BatchWorkload
    from benchmarks.ledger.edit_delta import EditDeltaWorkload
    from benchmarks.ledger.serve_http import ServeHttpWorkload

    if name in SPECS:
        return BatchWorkload(name, scale)
    if name == "edit-delta":
        return EditDeltaWorkload(scale)
    if name == "serve-http":
        return ServeHttpWorkload(scale)
    raise SystemExit(f"unknown workload {name!r}; known: "
                     + ", ".join(w.name for w in catalog.WORKLOADS))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = catalog.SCALE,
                 setups: int = catalog.SETUPS,
                 out_dir: Optional[str] = None) -> Dict[str, object]:
    """One run; returns the full report (both metric families when
    ``trace`` is on, end-to-end only otherwise)."""
    workload = make_workload(name, scale)
    started = clock()
    workload.generate(seed)
    generated_s = clock() - started

    os.makedirs(out_dir or DEFAULT_OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir or DEFAULT_OUT)
    live = False
    try:
        setup_s = []
        timer = CalibratedTimer()
        for attempt in range(setups):
            if live:
                workload.teardown()
            live = True
            _, seconds_taken, _, workload.setup_factor = timer.run(
                lambda: workload.setup(workdir))
            setup_s.append(seconds_taken)
        workload.measure(seconds)
        workload.teardown()
        live = False
        end_to_end = dict(workload.e2e)
        end_to_end["setup_s"] = median_of(setup_s)
        # After teardown: the children have been waited for, so their
        # peak is in; before the replay, which is not the workload.
        end_to_end["peak_rss_mb"] = Sample(peak_rss_mb())
        workload.verify()

        layers: Dict[str, Sample] = {}
        if trace:
            recorder = Recorder(name)
            layers = {m.name: Sample(0.0) for m in catalog.PER_LAYER}
            measured = workload.replay(recorder, workdir)
            unknown = set(measured) - set(layers)
            if unknown:
                raise KeyError(f"metrics not in the catalog: {unknown}")
            layers.update(measured)
            layers["bench.corpus_gen_s"] = Sample(generated_s)
            if out_dir is not None:
                write_chrome_trace(
                    os.path.join(out_dir, f"{name}.trace.json"),
                    recorder.spans)
    finally:
        if live:  # a failed run must not leave a pool or server behind
            workload.teardown()
        shutil.rmtree(workdir, ignore_errors=True)

    missing = {m.name for m in catalog.END_TO_END} - set(end_to_end)
    if missing:
        raise KeyError(f"workload {name} did not report {missing}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "operation": catalog.OPERATIONS[name],
        "attempted": workload.attempted,
        "failed": workload.failed,
        "correct": workload.failed == 0,
        "warnings": (warnings_of(name, end_to_end, layers)
                     if scale == catalog.SCALE else []),
        "end_to_end": {k: v.to_dict() for k, v in end_to_end.items()},
        "per_layer": {k: v.to_dict() for k, v in layers.items()},
    }


#: ISSUE 11's band for ``replay.coverage`` where the timed pass runs in
#: one process (on ``dense-pool`` the replayed layers are not the pass).
COVERAGE_BAND = (0.85, 1.15)


def warnings_of(name: str, end_to_end: Dict[str, Sample],
                layers: Dict[str, Sample]) -> List[str]:
    """What a reader should know before trusting a default-scale run."""
    warnings = []
    operations = end_to_end["op_p95_ms"].n
    if operations < catalog.MIN_OPERATIONS:
        warnings.append(
            f"op_p95_ms rests on {operations} operations, fewer than "
            f"{catalog.MIN_OPERATIONS}: under ten samples lie beyond it")
    coverage = layers.get("replay.coverage", Sample(0.0)).value
    low, high = COVERAGE_BAND
    if name != "dense-pool" and coverage and not low <= coverage <= high:
        warnings.append(
            f"replay.coverage {coverage:.2f} is outside {low}..{high}: "
            "the replayed layers do not add up to the timed pass, read "
            "their shares with care")
    return warnings


def print_report(report: Dict[str, object]) -> None:
    """The ledger rows of one run: name, value, unit, n, quartiles."""
    print(f"# {report['workload']}  seed={report['seed']} "
          f"seconds={report['seconds']} scale={report['scale']}  "
          f"op = {report['operation']}")
    print(f"# attempted={report['attempted']} failed={report['failed']} "
          f"failed_ops_ratio="
          f"{report['failed'] / max(1, report['attempted']):.6f}")
    for warning in report["warnings"]:
        print(f"# warning: {warning}")
    for family in ("end_to_end", "per_layer"):
        for name, sample in report[family].items():
            spread = (f"n={sample['n']} q1={sample['q1']:.6g} "
                      f"q3={sample['q3']:.6g}" if sample["n"] > 1
                      else "n=1")
            print(f"{name:34s} {sample['value']:14.6g} "
                  f"{catalog.UNITS[name]:6s} {spread}")


def result_line(report: Dict[str, object], trace: bool) -> str:
    """The contract's last line: exactly ``correct``, ``attempted``,
    ``failed`` and ``metrics`` (end-to-end, or per-layer under
    ``--trace 1``), each value with all its digits."""
    family = report["per_layer"] if trace else report["end_to_end"]
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": sample["value"], "unit": catalog.UNITS[name]}
            for name, sample in family.items()
        },
    })
