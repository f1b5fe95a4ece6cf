"""Set-up probe: import revpinsker and build one workload's inputs in this
fresh process, and print the seconds that took.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS  # noqa: E402  (needs the path above)

workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
t0 = time.perf_counter()
workload.setup()
print(repr(time.perf_counter() - t0))
