"""``--compare A.json B.json``: B against A, per workload and metric.

For every workload and end-to-end metric the medians of the two
files' runs are compared in the metric's *worse* direction and set
against its bound from the catalog:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``BREACH`` — it is (the command then exits non-zero);
* ``unresolved`` — the run-to-run spread (quartile distance over
  median, the larger of the two files') is wider than the bound, so
  the pair cannot tell a regression from noise.  Needs at least four
  runs a side (``--repeats``); with fewer the spread is unknown and
  the row is judged on the medians alone.

The per-layer metrics in ``catalog.GATED_PER_LAYER`` (ISSUE 11's
end-to-end metrics that exist on some workloads only) are gated the
same way on their workloads, on the one value the traced run gives.

Run on two ledgers of the same commit this is the A/A check; run on a
parent's and a change's it is the regression gate.
"""

from __future__ import annotations

import json
import statistics
from typing import List, Optional, Sequence

from benchmarks.ledger import catalog


def spread_of(values: List[float]) -> Optional[float]:
    """Quartile distance as a share of the median (``None``: too few
    runs to say)."""
    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def judge(workload: str, name: str, better: str, bound: float,
          runs_a: Sequence[float], runs_b: Sequence[float]) -> bool:
    """Print one row; ``True`` on a breach."""
    median_a = statistics.median(runs_a)
    median_b = statistics.median(runs_b)
    change = (median_b - median_a) / median_a
    worse = change if better == "lower" else -change
    spreads = [s for s in (spread_of(runs_a), spread_of(runs_b))
               if s is not None]
    spread = max(spreads) if spreads else None
    if spread is not None and spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "BREACH"
    else:
        verdict = "ok"
    print(f"{workload:20s} {name:26s} {median_a:12.5g} "
          f"{median_b:12.5g} {worse:+9.1%} {bound:6.0%} "
          + (f"{spread:7.1%}" if spread is not None else f"{'n/a':>7s}")
          + f"  {verdict}")
    return verdict == "BREACH"


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        ledger_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        ledger_b = json.load(handle)
    print(f"# A: {path_a} {ledger_a['fingerprint']}")
    print(f"# B: {path_b} {ledger_b['fingerprint']}")
    print(f"{'workload':20s} {'metric':26s} {'A median':>12s} "
          f"{'B median':>12s} {'worse by':>9s} {'bound':>6s} "
          f"{'spread':>7s}  verdict")
    breaches = 0
    better = {m.name: m.better for m in catalog.PER_LAYER}
    for name, row_a in ledger_a["workloads"].items():
        row_b = ledger_b["workloads"].get(name)
        if row_b is None:
            print(f"{name:20s} missing from B")
            breaches += 1
            continue
        for metric in catalog.END_TO_END:
            breaches += judge(name, metric.name, metric.better,
                              metric.bound,
                              row_a["end_to_end"][metric.name],
                              row_b["end_to_end"][metric.name])
        for gate in catalog.GATED_PER_LAYER:
            if name in gate.workloads:
                breaches += judge(name, gate.name, better[gate.name],
                                  gate.bound,
                                  [row_a["per_layer"][gate.name]],
                                  [row_b["per_layer"][gate.name]])
        ratio_a = row_a["failed"] / max(1, row_a["attempted"])
        ratio_b = row_b["failed"] / max(1, row_b["attempted"])
        verdict = "ok"
        if ratio_b > ratio_a:   # any increase is a regression
            verdict = "BREACH"
            breaches += 1
        print(f"{name:20s} {'failed_ops_ratio':26s} {ratio_a:12.5g} "
              f"{ratio_b:12.5g} {'':9s} {'0%':>6s} {'':7s}  {verdict}")
    print(f"# {breaches} breach(es)")
    return 1 if breaches else 0
