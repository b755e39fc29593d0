"""Does the pool pay on this machine?  Printed, not gated.

Runs the ledger's ``dense-inproc`` and ``dense-pool`` workloads (same
inputs; the second with ``workers(2)``) three times each into ``OUT``
and prints the ratio of their median ``mb_per_s``:

    python benchmarks/pool_pays.py OUT
"""

import json
import os
import statistics
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger.cli import main as ledger  # noqa: E402

WORKLOADS = ("dense-inproc", "dense-pool")


def main(out: str) -> int:
    status = ledger(["--workloads", ",".join(WORKLOADS), "--repeats", "3",
                     "--out", out])
    if status:
        return status
    with open(os.path.join(out, "ledger.json"), encoding="utf-8") as handle:
        workloads = json.load(handle)["workloads"]
    inproc, pool = (
        statistics.median(workloads[name]["end_to_end"]["mb_per_s"])
        for name in WORKLOADS)
    print(f"does the pool pay on this runner: dense-pool {pool:.2f} MB/s / "
          f"dense-inproc {inproc:.2f} MB/s = {pool / inproc:.2f}x "
          f"(printed, not gated)")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
