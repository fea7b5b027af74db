"""End-to-end benchmark for the Force reproduction.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`perfbench.workloads`) from a seed and prints
its metrics; ``BENCHMARK.json`` at the repository root lists them.
"""

import sys
from pathlib import Path

#: the checkout the benchmark measures
ROOT = Path(__file__).resolve().parent.parent
#: where the ``repro`` package lives inside it
SRC = ROOT / "src"


def use_checkout_src() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
