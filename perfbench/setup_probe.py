"""Time a cold start of one workload and print the seconds it took.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Run in a fresh interpreter: imports collisim and builds and validates the
workload's first CollisionConfig, including its collision unitary.
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import collisim  # noqa: E402
import workloads  # noqa: E402

cfg = workloads.first_config(sys.argv[1], int(sys.argv[2]))
cfg.validate()
collisim.collision_unitary(cfg, 0)
print(time.perf_counter() - start)
