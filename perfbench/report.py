"""Print every benchmark metric of every workload by name, with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 5]

Runs ``run.py`` once untraced and once traced per workload, one run at a
time, and prints one row per metric with a column per workload. Exits 1 if
any run failed its output checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=5)
    args = p.parse_args()
    table: dict[str, dict] = {}
    units: dict[str, str] = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=HERE.parent)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                if not lines:
                    continue
            result = json.loads(lines[-1])
            if trace == 0:
                for name, key in (("jobs", "attempted"), ("jobs_failed", "failed")):
                    table.setdefault(name, {})[workload] = result[key]
                    units[name] = "count"
            for name, m in result["metrics"].items():
                table.setdefault(name, {})[workload] = m["value"]
                units[name] = m["unit"]
    print(f"{'metric':42s} {'unit':6s}" + "".join(f" {w:>14s}" for w in WORKLOADS))
    for name, row in table.items():
        cells = "".join(f" {row[w]:>14.6g}" if w in row else f" {'-':>14s}"
                        for w in WORKLOADS)
        print(f"{name:42s} {units[name]:6s}{cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
