"""Benchmark for latperm: one workload, one seed, timed passes over its job list.

    python3 perfbench/run.py --workload windows-exact --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports latperm from its ``src/``. It
repeats the workload's job list until its passes have taken ``--seconds``,
checking every output of every pass. Between passes it times cold set-up in
fresh processes, spread over the run so that they see the host as the
passes do, and before each job it times a fixed piece of pure-Python work,
the host probe, to see how fast the shared host runs at that moment. With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run with every public latperm call wrapped in a span.
The last line of standard output is one JSON object with the result; a table
of the same metrics goes to standard error, and a record of the run (job
times, problems, spans) to ``.bench_out/``. Exits 1 when an output check
failed or the checkout holds no latperm sources, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"
SETUP_PROBES = 15
# The host probe's 10th percentile on the reference host (a 2-vCPU x86_64 VM,
# Python 3.11.7). End-to-end times are scaled to a host this fast.
HOST_PROBE_REF_S = 0.0065

END_TO_END = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; counts, bits and bytes must repeat exactly
PER_LAYER = {
    "permanent.window_permanent.calls": "count",
    "permanent.window_permanent.self_s": "s",
    "permanent.window_permanent.sites": "count",
    "permanent.window_permanent.targets": "count",
    "permanent.window_permanent.required": "count",
    "permanent.window_permanent.result_bits": "bits",
    "permanent.torus_permanent.calls": "count",
    "permanent.torus_permanent.self_s": "s",
    "permanent.torus_permanent.sites": "count",
    "permanent.torus_permanent.result_bits": "bits",
    "permanent.capacity_errors": "count",
    "permanent.det_identity_check.s": "s",
    "groupring.plan.calls": "count",
    "groupring.plan.s": "s",
    "entropy.estimate_report.self_s": "s",
    "entropy.pool.parallelism": "ratio",
    "entropy.transfer_matrix.calls": "count",
    "entropy.transfer_matrix.s": "s",
    "entropy.transfer_matrix.states": "count",
    "entropy.transfer_pressure.calls": "count",
    "entropy.transfer_pressure.self_s": "s",
    "fkdet.mahler_measure.calls": "count",
    "fkdet.mahler_measure.s": "s",
    "fkdet.mahler_measure.cells": "count",
    "fkdet.mahler_measure_roots.s": "s",
    "fkdet.evaluate_family.self_s": "s",
    "patterns.enumerate.calls": "count",
    "patterns.enumerate.items": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}
EXACT_UNITS = {"count", "bits", "bytes"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def host_probe() -> float:
    """Seconds for a fixed piece of work like latperm's sweeps.

    It adds big integers into a dict of a few thousand keys. On a shared host
    its time moves with the host's speed, which changes over seconds to
    minutes by as much as twice, and takes the program's times with it.
    """
    t0 = perf_counter()
    d, x = {}, 3 ** 200
    for i in range(30000):
        k = (i * 7919) % 25013
        d[k] = d.get(k, 0) + x * (i & 7)
    return perf_counter() - t0


def run_pass(index: int, jobs, checker, tracer, reported: set) -> dict:
    outputs, times, probes = {}, {}, []
    cpu0 = process_time()
    start = perf_counter()
    for job in jobs:
        if tracer is None:
            probes.append(host_probe())
        else:
            tracer.job = f"{index}:{job.name}"
        t0 = perf_counter()
        try:
            outputs[job.name] = job.run()
        except Exception as e:  # the pass goes on; the job counts as failed
            outputs[job.name] = e
            if job.name not in reported:
                reported.add(job.name)
                traceback.print_exc(file=sys.stderr)
        times[job.name] = perf_counter() - t0
    wall = perf_counter() - start
    cpu = process_time() - cpu0
    problems = {name: p for name, p in checker.check_pass(jobs, outputs).items() if p}
    bytes_out = sum(len(o[1].encode()) for o in outputs.values()
                    if isinstance(o, tuple))
    return {"wall": wall, "cpu": cpu, "times": times, "probes": probes,
            "problems": problems, "bytes_out": bytes_out}


def _self_times(spans) -> tuple[dict, dict]:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for c0, c1 in sorted((max(c.t0, s.t0), min(c.t1, s.t1)) for c in children[s.id]):
            if c1 > reach:
                covered += c1 - max(c0, reach)
                reach = c1
        out[s.id] = (s.t1 - s.t0) - covered
    return out, children


def layer_metrics(spans, info: dict) -> dict:
    """Per-layer metrics of one pass from its spans."""
    selfs, children = _self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def dur(*names):
        return sum(s.t1 - s.t0 for n in names for s in by_name[n])

    def self_s(name):
        return sum(selfs[s.id] for s in by_name[name])

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    pools = by_name["entropy.upper_estimates"] + by_name["entropy.torus_estimates"]
    pool_wall = sum(s.t1 - s.t0 for s in pools)
    pool_work = sum(c.cpu for s in pools for c in children[s.id])
    plan = ("groupring.dilate", "groupring.interior", "groupring.project",
            "groupring.separated_on_quotient")
    enum = ("patterns.enumerate_injective", "patterns.enumerate_with_image")
    wp, tp = "permanent.window_permanent", "permanent.torus_permanent"
    return {
        f"{wp}.calls": calls(wp),
        f"{wp}.self_s": self_s(wp),
        f"{wp}.sites": count(wp, "sites"),
        f"{wp}.targets": count(wp, "targets"),
        f"{wp}.required": count(wp, "required"),
        f"{wp}.result_bits": count(wp, "result_bits"),
        f"{tp}.calls": calls(tp),
        f"{tp}.self_s": self_s(tp),
        f"{tp}.sites": count(tp, "sites"),
        f"{tp}.result_bits": count(tp, "result_bits"),
        "permanent.capacity_errors": sum(s.error == "CapacityError"
                                         for s in by_name[wp] + by_name[tp]),
        "permanent.det_identity_check.s": dur("permanent.det_identity_check"),
        "groupring.plan.calls": calls(*plan),
        "groupring.plan.s": dur(*plan),
        "entropy.estimate_report.self_s": self_s("entropy.estimate_report"),
        "entropy.pool.parallelism": pool_work / pool_wall if pool_wall else 0.0,
        "entropy.transfer_matrix.calls": calls("entropy.transfer_matrix"),
        "entropy.transfer_matrix.s": dur("entropy.transfer_matrix"),
        "entropy.transfer_matrix.states": count("entropy.transfer_matrix", "states"),
        "entropy.transfer_pressure.calls": calls("entropy.transfer_pressure"),
        "entropy.transfer_pressure.self_s": self_s("entropy.transfer_pressure"),
        "fkdet.mahler_measure.calls": calls("fkdet.mahler_measure"),
        "fkdet.mahler_measure.s": dur("fkdet.mahler_measure"),
        "fkdet.mahler_measure.cells": count("fkdet.mahler_measure", "cells"),
        "fkdet.mahler_measure_roots.s": dur("fkdet.mahler_measure_roots"),
        "fkdet.evaluate_family.self_s": self_s("fkdet.evaluate_family"),
        "patterns.enumerate.calls": calls(*enum),
        "patterns.enumerate.items": sum(count(n, "items") for n in enum),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_out": info["bytes_out"],
        "process.cpu_s": info["cpu"],
        "trace.overhead_s": sum(s.overhead for s in spans),
    }


def summarize_layers(passes, spans) -> tuple[dict, list[str]]:
    """Median of each time over the passes; each count must repeat exactly."""
    per_pass = defaultdict(list)
    for s in spans:
        per_pass[int(s.job.split(":", 1)[0])].append(s)
    rows = [layer_metrics(per_pass[i], info) for i, info in enumerate(passes)]
    metrics, problems = {}, []
    for name, unit in PER_LAYER.items():
        values = [r[name] for r in rows]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, problems


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    draws = workloads.draw(args.workload, args.seed)
    jobs = workloads.build(args.workload, draws)
    checker = checks.Checker(checks.expectations_in_child(args.workload, args.seed))

    # set-up is an end-to-end metric, so traced runs do not probe it
    probes = 0 if args.trace else SETUP_PROBES
    tracer = Tracer() if args.trace else None
    passes, setup, reported = [], [], set()
    if tracer is not None:
        tracer.install()
    try:
        measured = 0.0
        while not passes or measured < args.seconds:
            # the set-up probes due so far, spread evenly over the passes' time
            while probes and len(setup) < max(1, probes * measured / args.seconds):
                setup.append(setup_seconds(args.workload, args.seed))
            passes.append(run_pass(len(passes), jobs, checker, tracer, reported))
            measured += passes[-1]["wall"]
        while len(setup) < probes:
            setup.append(setup_seconds(args.workload, args.seed))
    finally:
        if tracer is not None:
            tracer.restore()

    attempted = len(jobs) * len(passes)
    failed = sum(len(p["problems"]) for p in passes)
    problems = [f"pass {i} {name}: {msg}" for i, p in enumerate(passes)
                for name, msgs in p["problems"].items() for msg in msgs]
    if tracer is None:
        # Noise on a shared host only adds time, so each job's fastest pass
        # is its steadiest figure. Whole runs still fall in slow spells of
        # the host; scaling by the host probe's fast end, taken over the same
        # run, brings them to one reference speed.
        fastest = {job.name: min(p["times"][job.name] for p in passes) for job in jobs}
        probes = [t for p in passes for t in p["probes"]]
        speed = HOST_PROBE_REF_S / statistics.quantiles(probes, n=10)[0]
        raw = {"wall_s": sum(fastest.values()), "slowest_job_s": max(fastest.values()),
               "setup_s": min(setup), "host_speed": speed}
        values = {
            "wall_s": raw["wall_s"] * speed,
            "slowest_job_s": raw["slowest_job_s"] * speed,
            "setup_s": raw["setup_s"] * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        values, count_problems = summarize_layers(passes, tracer.spans)
        problems += count_problems
        units = PER_LAYER
    correct = not problems

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "draws": {k: list(v) for k, v in draws.items()},
              "environment": environment(), "setup_s": setup,
              "unscaled": raw if tracer is None else {},
              "passes": passes, "problems": problems, "metrics": values,
              "spans": [s.to_json() for s in tracer.spans] if tracer else []}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"jobs={attempted} failed={failed}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:42s} {value:>14.6g} {units[name]}", file=sys.stderr)
    if tracer is None:
        print(f"  times above are scaled by the host speed {speed:.4g}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
