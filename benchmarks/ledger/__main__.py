"""``python -m benchmarks.ledger`` / ``python3 benchmarks/ledger/__main__.py``.

Either way of starting it works from a bare checkout: the repository
root (for ``benchmarks.ledger``) and ``src`` (for ``repro``) are put
on the path here, so ``PYTHONPATH=src`` is optional.
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.ledger.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
