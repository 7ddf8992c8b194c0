"""Time the benchmark's set-up in a fresh interpreter: imports plus inputs.

Usage: python3 benchmarks/setup_probe.py WORKLOAD SEED
Prints the elapsed seconds.  run.py starts this several times per run and
reports the median as ``setup_s``.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
print(repr(time.perf_counter() - _T0))
