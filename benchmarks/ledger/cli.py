"""Command line of the performance ledger.

Three uses of one command:

* **one workload, one run** (``--workload NAME --seed N --seconds S
  --trace 0|1``) — what ``BENCHMARK.json`` tells the driver to run;
* **the whole ledger** (no ``--workload``) — every workload in a fresh
  subprocess with ``PYTHONHASHSEED`` pinned, results and Chrome traces
  under ``--out``, ``ledger.json`` for later comparison;
* **a comparison** (``--compare A.json B.json``) of two such files
  against the bounds in the catalog.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, Optional, Sequence

from benchmarks.ledger import catalog
from benchmarks.ledger.harness import DEFAULT_OUT, LEDGER_DIR

ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
#: Pinned in every process the ledger measures: set iteration order
#: feeds certification, so an unpinned hash seed is run-to-run noise.
HASH_SEED = "0"


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload "
                        "in this process and print the result line")
    parser.add_argument("--workloads", help="comma-separated subset "
                        "for a ledger run (default: all six)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="ledger run: with N > 1, N end-to-end runs "
                        "per workload on seeds seed..seed+N-1 (for "
                        "--compare); with 1 the traced run gives both")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, one set-up, "
                        "well under 15 s in total")
    parser.add_argument("--out", help="directory for ledger.json and "
                        f"the Chrome traces (default {DEFAULT_OUT})")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two ledger.json files")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if args.manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if args.compare:
        from benchmarks.ledger.compare import compare_files

        return compare_files(*args.compare)
    if args.workload:
        return run_one(args)
    return run_ledger(args)


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------


def run_one(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # The driver starts us with whatever environment it has; start
        # over with the hash seed pinned (same pid, nothing left behind).
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    from benchmarks.ledger.harness import (
        print_report,
        result_line,
        run_workload,
        stop_children,
    )

    try:
        report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            scale=catalog.SMOKE_SCALE if args.smoke else catalog.SCALE,
            setups=1 if args.smoke else catalog.SETUPS,
            out_dir=args.out,
        )
    finally:
        # Failed or not: nothing this run started outlives it, not even
        # multiprocessing's resource tracker.
        stop_children()
    print_report(report)
    if args.out:
        path = os.path.join(args.out, f"{args.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    print(result_line(report, bool(args.trace)), flush=True)
    return 0 if report["correct"] else 1


# ----------------------------------------------------------------------
# The whole ledger, one subprocess per run
# ----------------------------------------------------------------------


def fingerprint(seed: int, scale: float) -> Dict[str, object]:
    """Where and on what the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": seed,
        "PYTHONHASHSEED": HASH_SEED,
        "scale": scale,
    }


def run_child(name: str, seed: int, trace: int, args: argparse.Namespace,
              out_dir: str) -> Dict[str, object]:
    """One run in a fresh interpreter; returns its full report."""
    command = [
        sys.executable, os.path.join(LEDGER_DIR, "__main__.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--out", out_dir,
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    completed = subprocess.run(command, env=env, cwd=ROOT, text=True,
                               stdout=subprocess.PIPE)
    sys.stdout.write(completed.stdout.rsplit("\n", 2)[0] + "\n")
    sys.stdout.flush()
    if completed.returncode != 0:
        raise SystemExit(f"{name} (seed {seed}) exited "
                         f"{completed.returncode}")
    with open(os.path.join(out_dir, f"{name}.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_ledger(args: argparse.Namespace) -> int:
    names = [w.name for w in catalog.WORKLOADS]
    if args.workloads:
        chosen = args.workloads.split(",")
        unknown = set(chosen) - set(names)
        if unknown:
            raise SystemExit(f"unknown workloads: {sorted(unknown)}")
        names = [n for n in names if n in chosen]
    if args.smoke:
        args.seconds = min(args.seconds, 0.3)
    out_dir = os.path.abspath(args.out or DEFAULT_OUT)
    os.makedirs(out_dir, exist_ok=True)

    ledger: Dict[str, object] = {
        "fingerprint": fingerprint(
            args.seed,
            catalog.SMOKE_SCALE if args.smoke else catalog.SCALE),
        "seconds": args.seconds,
        "catalog": catalog.annotations(),
        "workloads": {},
    }
    failed = 0
    for name in names:
        # A traced run times its passes exactly as an untraced one
        # does (the replay comes after), so alone it gives both
        # families; repeats add --trace 0 runs on further seeds.
        runs = [run_child(name, args.seed + i, 0, args, out_dir)
                for i in range(args.repeats if args.repeats > 1 else 0)]
        traced = run_child(name, args.seed, 1, args, out_dir)
        failed += sum(r["failed"] for r in runs + [traced])
        runs = runs or [traced]
        ledger["workloads"][name] = {
            "end_to_end": {
                metric.name: [r["end_to_end"][metric.name]["value"]
                              for r in runs]
                for metric in catalog.END_TO_END
            },
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "per_layer": {k: v["value"]
                          for k, v in traced["per_layer"].items()},
        }
    path = os.path.join(out_dir, "ledger.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print_summary(ledger)
    print(f"# wrote {path} and per-workload Chrome traces "
          f"(*.trace.json; open in https://ui.perfetto.dev)")
    return 1 if failed else 0


def print_summary(ledger: Dict[str, object]) -> None:
    print("# " + " ".join(f"{k}={v}" for k, v in
                          ledger["fingerprint"].items()))
    print(f"{'workload':20s} " + " ".join(
        f"{m.name:>13s}" for m in catalog.END_TO_END) + "  failed_ops_ratio")
    for name, row in ledger["workloads"].items():
        medians = [statistics.median(row["end_to_end"][m.name])
                   for m in catalog.END_TO_END]
        print(f"{name:20s} " + " ".join(f"{v:13.5g}" for v in medians)
              + f"  {row['failed'] / max(1, row['attempted']):.6f}")
