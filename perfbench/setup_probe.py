"""Time one cold set-up in a fresh process and print the seconds it took.

Set-up is importing ``latperm`` and ``latperm.cli`` and building a
workload's job list: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from time import perf_counter

t0 = perf_counter()
import workloads  # noqa: E402  (imports latperm and latperm.cli)

workloads.build(sys.argv[1], workloads.draw(sys.argv[1], int(sys.argv[2])))
print(perf_counter() - t0)
