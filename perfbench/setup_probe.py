"""One benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the program, builds the workload's inputs for the seed and prints the
CLOCK_MONOTONIC reading at that moment, which run.py compares with the moment
it spawned this process.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, workloads  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
workloads.WORKLOADS[workload].build(inputs.make_inputs(workload, seed))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
