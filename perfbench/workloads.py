"""Seeded job lists for the benchmark workloads.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports ``latperm`` and ``latperm.cli`` from there, never from an installed
copy. A seed picks only the drawn coefficients of each workload; everything
else about a job list is fixed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "latperm" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: no latperm sources under {SRC}")
sys.path.insert(0, str(SRC))

import latperm  # noqa: E402
import latperm.cli  # noqa: E402
from latperm import GroupRingElement, Window  # noqa: E402

if Path(latperm.__file__).resolve().parent != SRC / "latperm":
    raise SystemExit(f"benchmark: latperm imported from {latperm.__file__}, not {SRC}")

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    """One call into latperm and what its output is checked against.

    A job with ``argv`` runs ``latperm.cli.main(argv)``; otherwise it runs
    ``latperm.window_permanent(element, window, mode=mode)``. ``key`` names
    the drawn coefficients the job depends on ("" when it depends on none)
    and selects its reference output.
    """

    name: str
    key: str = ""
    argv: tuple[str, ...] = ()
    element: GroupRingElement | None = None
    window: Window | None = None
    mode: str = ""
    pair: str | None = None  # job whose exact value must equal this one's
    dimer: tuple[int, int] | None = None  # (a, b): torus values obey Kasteleyn
    family: tuple[str, dict] | None = None  # 1-D family: transfer value = max root measure

    def run(self):
        """The LogValue of a library job; (exit code, stdout, stderr) of a CLI job."""
        if not self.argv:
            return latperm.window_permanent(self.element, self.window, mode=self.mode)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = latperm.cli.main(list(self.argv))
            except SystemExit as e:  # argparse rejects an argument list
                code = e.code if isinstance(e.code, int) else int(e.code is not None)
        return code, stdout.getvalue(), stderr.getvalue()


def dimer_terms(a, b) -> dict:
    return {(1, 0): a, (-1, 0): a, (0, 1): b, (0, -1): b}


def quad_terms(a, b, c, d) -> dict:
    return {(0, 0): a, (1, 0): b, (0, 1): c, (1, 1): d}


def trinomial_terms(K: int) -> dict:
    """1 + u^(K-1) + u^K."""
    return {(0,): 1, (K - 1,): 1, (K,): 1}


def _inline(terms: dict) -> str:
    dim = len(next(iter(terms)))
    return json.dumps({"dim": dim, "terms": [{"exp": list(p), "coef": c}
                                             for p, c in sorted(terms.items())]})


def _key(var: str, value: tuple) -> str:
    return f"{var}=" + ",".join(str(v) for v in value)


def _windows_exact(draws: dict) -> list[Job]:
    a, b = draws["dimer"]
    dkey = _key("dimer", draws["dimer"])
    qkey = _key("quad", draws["quad"])
    dimer = GroupRingElement(2, dimer_terms(a, b))
    dimer_t = GroupRingElement(2, dimer_terms(b, a))
    quad = GroupRingElement(2, quad_terms(*draws["quad"]))
    jobs = []
    for n in (5, 6, 7):
        for mode in ("admissible", "injective"):
            jobs.append(Job(f"dimer-{n}x{n}-{mode}", dkey, element=dimer,
                            window=Window.box([0, 0], [n, n]), mode=mode))
    for n in (6, 7):
        for mode in ("admissible", "injective"):
            jobs.append(Job(f"quad-{n}x{n}-{mode}", qkey, element=quad,
                            window=Window.box([0, 0], [n, n]), mode=mode))
    # the long side second makes the lexicographic sweep wide; the transposed
    # window with the transposed element has the same value and a narrow sweep
    for rows, cols in ((3, 8), (4, 7)):
        wide, narrow = f"dimer-{rows}x{cols}", f"dimer-{cols}x{rows}-transposed"
        jobs.append(Job(wide, dkey, element=dimer,
                        window=Window.box([0, 0], [rows, cols]),
                        mode="admissible", pair=narrow))
        jobs.append(Job(narrow, dkey, element=dimer_t,
                        window=Window.box([0, 0], [cols, rows]),
                        mode="admissible", pair=wide))
    return jobs


def _pressure_2d(draws: dict) -> list[Job]:
    a, b = draws["dimer"]
    unit = _inline(dimer_terms(1, 1))
    return [
        Job("pressure-unit-dimer",
            argv=("pressure", "--inline", unit, "--windows", "4..6",
                  "--tori", "6x6,8x8,10x10", "--threads", "2"),
            dimer=(1, 1)),
        Job("pressure-weighted-dimer", _key("dimer", draws["dimer"]),
            argv=("pressure", "--inline", _inline(dimer_terms(a, b)),
                  "--windows", "4..5", "--tori", "6x6,8x8", "--threads", "2"),
            dimer=(a, b)),
        Job("periodic-unit-dimer",
            argv=("periodic", "--inline", unit, "--tori", "4x4,6x6,6x8,8x8"),
            dimer=(1, 1)),
        Job("periodic-quad", _key("quad", draws["quad"]),
            argv=("periodic", "--inline", _inline(quad_terms(*draws["quad"])),
                  "--tori", "5x5,6x6,7x7")),
    ]


def _spectral_1d(draws: dict) -> list[Job]:
    a, b, c, d = draws["mahler"]
    jobs = [
        Job(f"pressure-trinomial-K{K}",
            argv=("pressure", "--inline", _inline(trinomial_terms(K)),
                  "--windows", "4..12"),
            family=("three-point-Z", {"a": 1, "b": 1, "c": 1, "K": K}))
        for K in (8, 10, 12, 14)
    ]
    jobs.append(Job("compare-three-point-Z-K9",
                    argv=("compare", "three-point-Z", "--params", "K=9"),
                    family=("three-point-Z", {"a": 1, "b": 1, "c": 1, "K": 9})))
    jobs.append(Job("compare-four-point-Z-K8",
                    argv=("compare", "four-point-Z", "--params", "K=8"),
                    family=("four-point-Z",
                            {"a": 1, "b": 1, "c": 1, "d": 1, "K": 8})))
    jobs.append(Job("mahler-2d", _key("mahler", draws["mahler"]),
                    argv=("mahler", "--inline",
                          _inline(quad_terms(a, b, c, -d)), "--grid", "256")))
    jobs.append(Job("verify", argv=("verify",)))
    return jobs


@dataclass(frozen=True)
class Workload:
    draws: dict  # variable -> the tuples a seed chooses from
    build: object  # draws -> list[Job]


def _tuples(values, n):
    return list(itertools.product(values, repeat=n))


WORKLOADS = {
    "windows-exact": Workload({"dimer": _tuples((1, 2, 3), 2),
                               "quad": _tuples((1, 2, 3), 4)}, _windows_exact),
    "pressure-2d": Workload({"dimer": _tuples((3, 4, 5), 2),
                             "quad": _tuples((2, 3), 4)}, _pressure_2d),
    "spectral-1d": Workload({"mahler": _tuples((1, 2, 3), 4)}, _spectral_1d),
}


def draw(workload: str, seed: int) -> dict:
    """The coefficients a seed picks, one tuple per draw variable."""
    rng = random.Random(seed)
    return {var: rng.choice(choices)
            for var, choices in sorted(WORKLOADS[workload].draws.items())}


def build(workload: str, draws: dict) -> list[Job]:
    jobs = WORKLOADS[workload].build(draws)
    if len({j.name for j in jobs}) != len(jobs):
        raise ValueError(f"duplicate job names in {workload}")
    return jobs
