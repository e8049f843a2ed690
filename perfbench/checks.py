"""Output checks: committed references plus oracles independent of the kernels.

* Every job's output must match ``refs.json``: exact integers exactly, floats
  to ``REL_TOL`` relative. The file holds a reference for every coefficient
  draw a seed can make, so every seed is checked in full.
* Dimer torus counts and logs must match the Kasteleyn closed form,
  evaluated in ``mpmath``.
* A wide rectangle must equal its transposed pair exactly.
* A 1-D transfer value must equal the largest root-based Mahler measure
  over the family's signed representatives.
* ``verify`` must pass every one of its checks.

Oracles are evaluated once, before any timed pass, in a child process
(``python3 perfbench/checks.py WORKLOAD SEED``), so that neither mpmath nor
the reference file adds to the memory of the measured process.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import workloads
from workloads import Job, latperm

REL_TOL = 1e-10
REFS_PATH = Path(__file__).resolve().parent / "refs.json"


def load_refs(workload: str) -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_json(ref, out, path: str = "$") -> list[str]:
    """Differences between a reference JSON value and an output, by path."""
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(ref) != set(out):
            return [f"{path}: keys differ"]
        return [p for k in ref for p in compare_json(ref[k], out[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(out, list) or len(ref) != len(out):
            return [f"{path}: lengths differ"]
        return [p for i, (r, o) in enumerate(zip(ref, out))
                for p in compare_json(r, o, f"{path}[{i}]")]
    if isinstance(ref, float) and not isinstance(out, bool) \
            and isinstance(out, (int, float)):
        return [] if close(ref, float(out)) else [f"{path}: {out!r} != {ref!r}"]
    if type(ref) is not type(out) or ref != out:
        return [f"{path}: {out!r} != {ref!r}"]
    return []


def kasteleyn_sqrt(a: int, b: int, m: int, n: int) -> int:
    """Weighted dimer cover count Z on the m x n torus (m, n even).

    The torus permanent of a(u1 + u1^-1) + b(u2 + u2^-1) is Z squared, with
    Z = (-Z00 + Z01 + Z10 + Z11) / 2 and
    Z_st = prod_{j<m, k<n} |2a sin(pi(2j+s)/m) + 2ib sin(pi(2k+t)/n)|^(1/2)
    (Kasteleyn 1961).
    """
    import mpmath

    with mpmath.workdps(40 + 2 * m * n):
        def part(s, t):
            prod = mpmath.mpf(1)
            for j in range(m):
                x = 2 * a * mpmath.sin(mpmath.pi * (2 * j + s) / m)
                for k in range(n):
                    prod *= abs(x + 2j * b * mpmath.sin(mpmath.pi * (2 * k + t) / n))
            return mpmath.sqrt(prod)

        z = (-part(0, 0) + part(0, 1) + part(1, 0) + part(1, 1)) / 2
        zi = int(mpmath.nint(z))
        if abs(z - zi) > mpmath.mpf(10) ** -20:
            raise ArithmeticError(f"Kasteleyn value {z} is not an integer")
        return zi


def family_root_value(family: str, params: dict) -> float:
    inst = latperm.family_instance(family, dict(params))
    return max(latperm.mahler_measure_roots(g) for g in inst.det_elements)


def expectations(jobs: list[Job], refs: dict) -> dict:
    """Each job's reference and oracle values, as JSON-serialisable dicts."""
    out = {"refs": {}, "dimer": {}, "family": {}}
    for job in jobs:
        try:
            out["refs"][job.name] = refs[job.name][job.key]
        except KeyError:
            raise SystemExit(f"benchmark: no reference for {job.name} [{job.key}]")
        if job.dimer:
            out["dimer"][job.name] = {f"{m}x{n}": kasteleyn_sqrt(*job.dimer, m, n) ** 2
                                      for m, n in _tori(job.argv)}
        if job.family:
            out["family"][job.name] = family_root_value(*job.family)
    return out


def expectations_in_child(workload: str, seed: int) -> dict:
    """``expectations`` of a workload's job list, computed in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), workload, str(seed)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: oracles failed\n{proc.stderr}")
    return json.loads(proc.stdout)


class Checker:
    """Checks the outputs of one workload's job list against refs and oracles."""

    def __init__(self, expect: dict):
        self.refs = expect["refs"]
        self.dimer = expect["dimer"]
        self.family = expect["family"]

    def check_pass(self, jobs: list[Job], outputs: dict) -> dict[str, list[str]]:
        """Problems per job name; a job with an empty list passed."""
        return {job.name: self._check(job, outputs) for job in jobs}

    def _check(self, job: Job, outputs: dict) -> list[str]:
        out = outputs[job.name]
        if isinstance(out, BaseException):
            return [f"raised {type(out).__name__}: {out}"]
        if not job.argv:
            value = out.linear
            problems = []
            if not isinstance(value, int) or value != self.refs[job.name]:
                problems.append(f"value {value!r} != reference {self.refs[job.name]}")
            paired = outputs.get(job.pair)
            if job.pair and getattr(paired, "linear", None) != value:
                problems.append(f"differs from transposed pair {job.pair}")
            return problems
        code, text, err = out
        if code != 0:
            return [f"exit code {code}: {err.strip()[-300:]}"]
        if job.argv[0] == "verify":
            return _check_verify(text, self.refs[job.name])
        payload = json.loads(text)
        problems = compare_json(self.refs[job.name], payload)
        if job.name in self.dimer:
            problems += _check_kasteleyn(payload, self.dimer[job.name])
        if job.name in self.family:
            problems += _check_family(payload, self.family[job.name])
        return problems


def _tori(argv: tuple[str, ...]) -> list[tuple[int, int]]:
    text = argv[argv.index("--tori") + 1]
    return [tuple(int(v) for v in part.split("x")) for part in text.split(",")]


def _check_kasteleyn(payload: dict, counts: dict) -> list[str]:
    problems = []
    if payload["command"] == "periodic":
        rows = [(r["torus"], r["sites"], r["count"], r["log_value"], r["normalized"])
                for r in payload["tori"]]
    else:
        rows = [(r["window"], r["size"], None, r["log_value"], r["normalized"])
                for r in payload["rows"] if r["kind"] == "torus"]
    if sorted(r[0] for r in rows) != sorted(counts):
        return [f"torus rows {[r[0] for r in rows]} != {sorted(counts)}"]
    for label, size, count, log_value, normalized in rows:
        expect = counts[label]
        if count is not None and count != expect:
            problems.append(f"{label}: count {count} != Kasteleyn {expect}")
        if not close(log_value, math.log(expect)) \
                or not close(normalized, math.log(expect) / size):
            problems.append(f"{label}: log {log_value} != Kasteleyn {math.log(expect)}")
    return problems


def _check_family(payload: dict, expect: float) -> list[str]:
    if payload["command"] == "compare":
        values = [payload["per_estimate_low"], payload["per_estimate_high"]]
    else:
        values = [payload["transfer_value"]]
    return [f"transfer value {v} != root measure {expect}"
            for v in values if not close(v, expect)]


def _check_verify(text: str, ref: str) -> list[str]:
    lines = text.strip().splitlines()
    names = [line.split(":")[0] for line in lines]
    problems = [line for line in lines[:-1] if not line.startswith("PASS ")]
    if names != [line.split(":")[0] for line in ref.strip().splitlines()]:
        problems.append("verify checks differ from the reference list")
    if not lines or not lines[-1].startswith("VERIFY PASSED"):
        problems.append("verify did not pass")
    return problems


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    jobs = workloads.build(name, workloads.draw(name, seed))
    print(json.dumps(expectations(jobs, load_refs(name))))
