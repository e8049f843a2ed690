"""Command-line front end for the permanent and determinant pipelines.

Subcommands:
  entropy    window/torus report for the pattern space of a displacement set
  pressure   the same report for a general nonnegative weight element
  permanent  admissible and injective pattern sums on a single box window
  mahler     logarithmic Mahler measure of a Laurent element
  compare    permanent bracket next to the determinant value for one family
  periodic   pattern counts on finite torus quotients (exact for integers)
  verify     seeded invariant suite, one PASS/FAIL line per check

Exit codes: 0 success, 1 verify failures, 2 argument or input errors,
3 capacity budget exceeded (partial output is still written, unless memory
ran out), 4 numerical failure (a transfer eigen-solve that did not
converge, whose value left its Collatz-Wielandt bracket or failed its dense
check; a root-based Mahler measure whose coefficient ratios overflow in
both orientations; or an inexact Ryser padding division).

All output is formatted here: _dump writes every JSON payload and _csv
every CSV, and both print floats with 12 significant digits and a '.'
decimal separator. Rerunning the same configuration with any thread count
reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .entropy import (
    EstimateRow,
    WindowSchedule,
    _run_jobs,
    default_tori,
    entropy_upper_bound,
    estimate_report,
    pressure_lower_bound,
    torus_label,
    transfer_pressure,
)
from .fkdet import (
    FAMILY_DEFAULTS,
    QuadratureConfig,
    evaluate_family,
    mahler_measure,
    mahler_measure_roots,
)
from .groupring import (
    CapacityError,
    GroupRingElement,
    TorusQuotient,
    Window,
    separated_on_quotient,
)
from .patterns import DEFAULT_BUDGET
from .permanent import (
    bregman_bound,
    det_identity_check,
    doubly_stochastic_extension,
    matrix_permanent,
    torus_permanent,
    vdw_bound,
    window_permanent,
)

_VERIFY_SEED = 20240816


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation; the one place that holds the flags' defaults."""

    command: str
    input_path: str | None = None
    inline: str | None = None
    dim: int | None = None
    windows: tuple[int, ...] = ()
    tori: tuple[tuple[int, ...], ...] = ()
    grid: int = QuadratureConfig.grid
    eps: float = QuadratureConfig.eps
    out_format: str = "json"
    threads: int = 1
    budget: int = DEFAULT_BUDGET
    family: str | None = None
    params: str | None = None

    def __post_init__(self):
        if self.command not in _SUBCOMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.out_format not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        if self.threads < 1:
            raise ValueError("threads must be positive")
        if self.budget < 1:
            raise ValueError("budget must be positive")


# ---------------------------------------------------------------------------
# flag parsing helpers


def parse_windows(text: str) -> tuple[int, ...]:
    """'4..12' -> (4,...,12); '6' -> (6,); '2,4,6' -> (2,4,6)."""
    items: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo, hi = part.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty window range {part!r}")
            items.extend(range(lo, hi + 1))
        else:
            items.append(int(part))
    out = tuple(sorted(set(items)))
    if not out:
        raise ValueError("no window sizes given")
    if out[0] < 1:
        raise ValueError("window sizes must be positive")
    return out


def parse_tori(text: str) -> tuple[tuple[int, ...], ...]:
    """'4x4,6x6' -> ((4,4),(6,6)); '4..8' and '4,6' give one-dimensional moduli."""
    out: list[tuple[int, ...]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "x" in part:
            out.append(tuple(int(v) for v in part.split("x")))
        elif ".." in part:
            lo, hi = part.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty torus range {part!r}")
            out.extend((n,) for n in range(lo, hi + 1))
        else:
            out.append((int(part),))
    if not out:
        raise ValueError("no torus moduli given")
    if any(m < 1 for moduli in out for m in moduli):
        raise ValueError("torus moduli must be positive")
    return tuple(out)


def _parse_params(text: str) -> dict:
    """'a=1,b=2,K=3' -> {'a': 1.0, 'b': 2.0, 'K': 3.0}."""
    params: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"parameter {part!r} is not of the form name=value")
        name, value = part.split("=", 1)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"parameter {name.strip()} must be finite")
        params[name.strip()] = value
    return params


# ---------------------------------------------------------------------------
# input loading


def _load_obj(cfg: RunConfig):
    if (cfg.input_path is None) == (cfg.inline is None):
        raise ValueError("pass exactly one of --input and --inline")
    if cfg.inline is not None:
        return json.loads(cfg.inline)
    with open(cfg.input_path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_dim(cfg: RunConfig, dim: int) -> None:
    if cfg.dim is not None and dim != cfg.dim:
        raise ValueError(f"input has dimension {dim}, --dim says {cfg.dim}")


def _element(cfg: RunConfig) -> GroupRingElement:
    obj = _load_obj(cfg)
    if not isinstance(obj, dict) or "terms" not in obj:
        raise ValueError("element JSON needs a 'terms' list")
    f = GroupRingElement.from_json(obj)
    if f.is_zero():
        raise ValueError("element is zero")
    _check_dim(cfg, f.dim)
    return f


def _displacement_weights(cfg: RunConfig, keep_weights: bool) -> GroupRingElement:
    """Element from JSON; a window JSON becomes the indicator of its points."""
    obj = _load_obj(cfg)
    if isinstance(obj, dict) and "terms" in obj:
        f = GroupRingElement.from_json(obj)
        if f.is_zero():
            raise ValueError("element is zero")
        if not keep_weights:
            f = GroupRingElement.indicator(f.support())
    else:
        f = GroupRingElement.indicator(Window.from_json(obj))
    _check_dim(cfg, f.dim)
    return f


def _default_sizes(dim: int) -> tuple[int, ...]:
    if dim == 1:
        return tuple(range(2, 11))
    if dim == 2:
        return (2, 3, 4)
    return (2, 3)


# ---------------------------------------------------------------------------
# output formatting


def _num(x):
    """x with every float, in dicts and lists too, at 12 significant digits;
    non-finite floats become "inf", "-inf" or "nan", and anything else,
    exact integers and None included, is left as it is."""
    if isinstance(x, dict):
        return {k: _num(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_num(v) for v in x]
    if isinstance(x, float):
        x = float(x)  # a numpy float's repr is not "inf"
        return float(f"{x:.12g}") if math.isfinite(x) else repr(x)
    return x


def _dump(payload: dict) -> str:
    """The payload as indented JSON. Exact counts print with all their
    digits: Python's int-to-str digit limit is lifted for this call only,
    so input parsing keeps it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        return json.dumps(_num(payload), indent=2) + "\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(_num(payload), indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _csv(header, rows) -> str:
    """A header line, then one line per row: floats at 12 significant
    digits, None as an empty cell, anything else with str."""
    def cell(x):
        return "" if x is None else f"{x:.12g}" if isinstance(x, float) else str(x)
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _estimate_csv(rows) -> str:
    return _csv([f.name for f in fields(EstimateRow)], map(astuple, rows))


# ---------------------------------------------------------------------------
# commands


def _estimate_command(cfg: RunConfig, f: GroupRingElement) -> tuple[str, int]:
    sizes = cfg.windows or _default_sizes(f.dim)
    schedule = WindowSchedule.boxes(f.dim, sizes)
    tori = [TorusQuotient(m) for m in cfg.tori] if cfg.tori else None
    report = estimate_report(f, schedule, tori=tori, budget=cfg.budget)
    code = 3 if report.capacity_skipped else 0
    if cfg.out_format == "csv":
        return _estimate_csv(report.rows), code
    return _dump({"command": cfg.command, "dim": f.dim, **asdict(report)}), code


def cmd_entropy(cfg: RunConfig) -> tuple[str, int]:
    return _estimate_command(cfg, _displacement_weights(cfg, keep_weights=False))


def cmd_pressure(cfg: RunConfig) -> tuple[str, int]:
    return _estimate_command(cfg, _element(cfg))


def cmd_permanent(cfg: RunConfig) -> tuple[str, int]:
    f = _element(cfg)
    sizes = cfg.windows or (_default_sizes(f.dim)[-1],)
    if len(sizes) != 1:
        raise ValueError("permanent takes a single window size")
    ((label, F),) = WindowSchedule.boxes(f.dim, sizes)
    values = {mode: window_permanent(f, F, mode=mode, budget=cfg.budget)
              for mode in ("admissible", "injective")}
    if cfg.out_format == "csv":
        return _estimate_csv(EstimateRow(label, len(F), lv.log, lv.normalized(len(F)), mode)
                             for mode, lv in values.items()), 0
    payload = {"command": "permanent", "dim": f.dim, "window": label,
               "size": len(F)}
    for mode, lv in values.items():
        payload[mode] = {"value": lv.linear, "log_value": lv.log,
                         "normalized": lv.normalized(len(F))}
    return _dump(payload), 0


def cmd_mahler(cfg: RunConfig) -> tuple[str, int]:
    f = _element(cfg)
    qcfg = QuadratureConfig(grid=cfg.grid, eps=cfg.eps)
    res = mahler_measure(f, qcfg, threads=cfg.threads)
    roots = mahler_measure_roots(f) if f.dim == 1 else None
    if cfg.out_format == "csv":
        return _csv(("value", "error_estimate", "converged", "roots_value"),
                    [(res.value, res.error_estimate, int(res.converged), roots)]), 0
    payload = {
        "command": "mahler",
        "dim": f.dim,
        "value": res.value,
        "error_estimate": res.error_estimate,
        "converged": res.converged,
        "levels": [{"grid": g, "value": v} for g, v in res.levels],
        "eps_spread": res.eps_spread,
        "roots_value": roots,
    }
    return _dump(payload), 0


def cmd_compare(cfg: RunConfig) -> tuple[str, int]:
    if not cfg.family:
        raise ValueError("compare needs a family name")
    if cfg.family not in FAMILY_DEFAULTS:
        known = ", ".join(sorted(FAMILY_DEFAULTS))
        raise ValueError(f"unknown family {cfg.family!r} (known: {known})")
    params = dict(FAMILY_DEFAULTS[cfg.family])
    params.update(_parse_params(cfg.params or ""))
    qcfg = QuadratureConfig(grid=cfg.grid, eps=cfg.eps)
    rep = evaluate_family(cfg.family, params, cfg=qcfg, budget=cfg.budget,
                          threads=cfg.threads)
    code = 0
    if rep.capacity_skipped:
        # the output keys stay fixed, so the skipped items are named on stderr
        print("capacity budget exceeded: " + "; ".join(rep.capacity_skipped),
              file=sys.stderr)
        code = 3
    if cfg.out_format == "csv":
        header = ("family", "params", "per_estimate_low", "per_estimate_high",
                  "det_value", "det_error_estimate")
        return _csv(header, [(rep.instance.family, rep.instance.params_label(),
                              rep.per_low, rep.per_high, rep.det_value,
                              rep.det_error)]), code
    payload = {
        "command": "compare",
        "family": rep.instance.family,
        "params": dict(rep.instance.params),
        "per_estimate_low": rep.per_low,
        "per_estimate_high": rep.per_high,
        "per_label": rep.per_label,
        "det_value": rep.det_value,
        "det_error_estimate": rep.det_error,
        "det_values": [r.value for r in rep.det_results],
        "torus_max": rep.torus_max,
    }
    return _dump(payload), code


def cmd_periodic(cfg: RunConfig) -> tuple[str, int]:
    f = _displacement_weights(cfg, keep_weights=True)
    if cfg.tori:
        moduli = cfg.tori
    elif f.dim == 1:
        moduli = tuple(
            (n,) for n in range(4, 13)
            if separated_on_quotient(f.support(), TorusQuotient((n,)))[0]
        )
    else:
        moduli = tuple(q.moduli for q in default_tori(f))
    if not moduli:
        raise ValueError("no usable torus moduli for this element")
    done, skipped = _run_jobs(lambda q: torus_permanent(f, q, budget=cfg.budget),
                              [TorusQuotient(m) for m in moduli], torus_label)
    rows = [(torus_label(q), q.size, lv) for q, lv in done]
    code = 3 if skipped else 0
    if cfg.out_format == "csv":
        return _estimate_csv(EstimateRow(label, size, lv.log, lv.normalized(size), "torus")
                             for label, size, lv in rows), code
    payload = {
        "command": "periodic",
        "dim": f.dim,
        "tori": [{"torus": label, "sites": size, "count": lv.linear,
                  "log_value": lv.log, "normalized": lv.normalized(size)}
                 for label, size, lv in rows],
        "capacity_skipped": skipped,
    }
    return _dump(payload), code


# ---------------------------------------------------------------------------
# verify suite


def _random_signed(rng, dim: int) -> GroupRingElement:
    span = 3 if dim == 1 else 1
    pts = {tuple(int(v) for v in rng.integers(-span, span + 1, size=dim))
           for _ in range(3)}
    terms = {}
    for p in pts:
        c = 0
        while c == 0:
            c = int(rng.integers(-2, 3))
        terms[p] = c
    return GroupRingElement(dim, terms)


def _random_positive(rng, dim: int, span: int = 3) -> GroupRingElement:
    pts = {tuple(int(v) for v in rng.integers(0, span + 1, size=dim))
           for _ in range(3)}
    return GroupRingElement(dim, {p: int(rng.integers(1, 4)) for p in pts})


def _random_window(rng, dim: int) -> Window:
    if dim == 1:
        return Window.box([int(rng.integers(-2, 3))], [int(rng.integers(3, 7))])
    return Window.box([0, 0], [2, int(rng.integers(2, 4))])


def _check_golden(rng, budget):
    f = GroupRingElement.indicator(Window.of([(0,), (1,), (2,)]))
    t = transfer_pressure(f)
    g = GroupRingElement(1, {(2,): 1, (1,): 1, (0,): -1})
    r = mahler_measure_roots(g)
    q = mahler_measure(g, QuadratureConfig())
    ok = abs(t - r) <= 1e-9 and abs(t - q.value) <= 1e-3
    return ok, f"transfer={t:.12g} roots={r:.12g} quadrature={q.value:.12g}"


def _check_zero_entropy(rng, budget):
    f = GroupRingElement.indicator(Window.of([(0,), (1,)]))
    counts = [torus_permanent(f, TorusQuotient((n,)), budget=budget).linear
              for n in range(4, 13)]
    p = transfer_pressure(f)
    ok = all(c == 2 for c in counts) and abs(p) <= 1e-12
    return ok, f"counts={sorted(set(counts))} transfer={p:.3g}"


def _check_det_identity(rng, budget):
    worst = 0.0
    ok = True
    for k in range(15):
        dim = 1 if k < 12 else 2
        f = _random_signed(rng, dim)
        F = _random_window(rng, dim)
        res = det_identity_check(f, F, budget=budget)
        worst = max(worst, res["rel_error"])
        if res["rel_error"] > 1e-9:
            ok = False
        iper = window_permanent(f.abs(), F, mode="injective", budget=budget)
        if res["lhs_det"] > iper.linear ** 2 * (1 + 1e-9) + 1e-9:
            ok = False
    return ok, f"15 instances, max rel err {worst:.3g}, det <= iper^2"


def _check_subadditivity(rng, budget):
    ok = True
    for _ in range(10):
        f = _random_positive(rng, 1)
        F1 = _random_window(rng, 1)
        F2 = Window.of({(int(v),) for v in rng.integers(-4, 5, size=3)})
        union = Window.of(set(F1.points) | set(F2.points))
        kappa = f.min_positive()
        g = GroupRingElement(1, {p: c + 1 for p, c in f.terms.items()})
        for mode in ("admissible", "injective"):
            pu = window_permanent(f, union, mode=mode, budget=budget).linear
            p1 = window_permanent(f, F1, mode=mode, budget=budget).linear
            p2 = window_permanent(f, F2, mode=mode, budget=budget).linear
            lhs = pu / kappa ** len(union)
            rhs = (p1 / kappa ** len(F1)) * (p2 / kappa ** len(F2))
            if not lhs <= rhs * (1 + 1e-12):
                ok = False
            pfg = window_permanent(f.pointwise(g), F1, mode=mode,
                                   budget=budget).linear
            pg = window_permanent(g, F1, mode=mode, budget=budget).linear
            if not pfg <= p1 * pg:
                ok = False
    return ok, "10 instances, union and pointwise-product inequalities"


def _check_bound_sandwich(rng, budget):
    ok = True
    for r in range(1, 5):
        for A in itertools.combinations(range(5), r):
            fA = GroupRingElement.indicator(Window.of([(a,) for a in A]))
            p = transfer_pressure(fA)
            lo = pressure_lower_bound(fA)
            hi = entropy_upper_bound(fA.support())
            if not (lo <= p + 1e-12 and p <= hi + 1e-12):
                ok = False
            if r >= 3 and not lo < p - 1e-9:
                ok = False
    return ok, "all A within {0..4}, 1 <= |A| <= 4"


def _check_classical_bounds(rng, budget):
    ok = True
    for _ in range(5):
        f = _random_positive(rng, 1)
        total = sum(f.terms.values())
        f = f.scale(1.0 / total)
        F = Window.box([0], [int(rng.integers(2, 5))])
        C, ground = doubly_stochastic_extension(f, F)
        n = len(ground)
        per = matrix_permanent(C)
        if not math.log(max(per, 1e-300)) >= vdw_bound(n) - 1e-9:
            ok = False
    for _ in range(5):
        n = int(rng.integers(2, 7))
        M = (rng.random((n, n)) < 0.6).astype(float)
        per = matrix_permanent(M)
        logper = math.log(per) if per > 0 else float("-inf")
        if not logper <= bregman_bound(M) + 1e-9:
            ok = False
    return ok, "5 van der Waerden floors, 5 Bregman ceilings"


def _check_backends(rng, budget):
    worst = 0.0
    for _ in range(5):
        f = _random_positive(rng, 1)
        F = _random_window(rng, 1)
        vals = [window_permanent(f, F, mode="admissible", backend=b,
                                 exact=False, budget=budget).linear
                for b in ("sweep", "dfs", "ryser")]
        spread = (max(vals) - min(vals)) / max(1.0, abs(max(vals)))
        worst = max(worst, spread)
    return worst <= 1e-10, f"5 instances, max backend spread {worst:.3g}"


def _check_functoriality(rng, budget):
    ok = True
    f = _random_positive(rng, 1)
    F = _random_window(rng, 1)
    base = window_permanent(f, F, budget=budget).linear
    shifted = window_permanent(f, F.translate((3,)), budget=budget).linear
    if base != shifted:
        ok = False
    scaled = window_permanent(f.scale(2), F, budget=budget).linear
    if scaled != base * 2 ** len(F):
        ok = False
    for _ in range(3):
        g = _random_positive(rng, 1, span=2)
        h = _random_positive(rng, 1, span=2)
        pg, ph = transfer_pressure(g), transfer_pressure(h)
        if not transfer_pressure(g.convolve(h)) >= pg + ph - 1e-6:
            ok = False
        if abs(transfer_pressure(g.adjoint()) - pg) > 1e-9:
            ok = False
    return ok, "translation/scaling exact, adjoint and products via transfer"


_VERIFY_CHECKS = (
    ("golden-transfer-vs-mahler", _check_golden),
    ("zero-entropy-family", _check_zero_entropy),
    ("det-identity-and-per-ge-det", _check_det_identity),
    ("subadditivity", _check_subadditivity),
    ("bound-sandwich", _check_bound_sandwich),
    ("classical-bounds", _check_classical_bounds),
    ("backend-agreement", _check_backends),
    ("translation-scaling-product", _check_functoriality),
)


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    """One PASS/FAIL line per check. The first check that exceeds the budget
    ends the run: its CAPACITY line follows the lines so far, and the exit is
    1 if an earlier check failed, 3 otherwise."""
    rng = np.random.default_rng(_VERIFY_SEED)
    lines = []
    failures = 0
    for name, check in _VERIFY_CHECKS:
        try:
            ok, detail = check(rng, cfg.budget)
        except CapacityError as e:
            lines.append(f"CAPACITY {name}: {e}")
            return "\n".join(lines) + "\n", 1 if failures else 3
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    if failures:
        lines.append(f"VERIFY FAILED ({failures} of {len(_VERIFY_CHECKS)} checks failed)")
    else:
        lines.append(f"VERIFY PASSED ({len(_VERIFY_CHECKS)} checks)")
    return "\n".join(lines) + "\n", 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


# Each subcommand defines only the flags it reads, so an unread flag is an
# "unrecognized arguments" error (exit 2). No flag has a default: an unset
# flag stays out of the namespace and RunConfig supplies its value.
_FLAGS = {
    "--windows": dict(type=parse_windows, metavar="N0..N1",
                      help="box side lengths, e.g. '2..10' or '4,8'"),
    "--tori": dict(type=parse_tori, metavar="SIZES",
                   help="torus moduli, e.g. '4x4,6x6' or '4..12'"),
    "--params": dict(metavar="KV", help="comma-separated overrides, e.g. 'a=2,b=1,K=4'"),
    "--grid": dict(type=int, help="quadrature grid points per dimension"),
    "--eps": dict(type=float, help="quadrature floor for log singularities"),
    "--format": dict(dest="out_format", choices=("json", "csv")),
    "--threads": dict(type=int, help="quadrature threads for mahler and compare"),
    "--budget": dict(type=int, help="node budget before a capacity error"),
}

# name: (run, help, what --input and --inline hold or None, the _FLAGS it reads);
# pressure accepts --threads unread, as benchmark command lines still pass it
_SUBCOMMANDS = {
    "entropy": (cmd_entropy, "growth-rate report for a displacement set",
                "displacement set as a window or element",
                "--windows --tori --format --budget"),
    "pressure": (cmd_pressure, "growth-rate report for a weight element",
                 "nonnegative weight element", "--windows --tori --format --threads --budget"),
    "permanent": (cmd_permanent, "pattern sums on a single box window", "weight element",
                  "--windows --format --budget"),
    "mahler": (cmd_mahler, "logarithmic Mahler measure", "Laurent element",
               "--grid --eps --format --threads"),
    "compare": (cmd_compare, "permanent bracket vs determinant value", None,
                "--params --grid --eps --format --threads --budget"),
    "periodic": (cmd_periodic, "pattern counts on torus quotients",
                 "displacement set or weight element", "--tori --format --budget"),
    "verify": (cmd_verify, "seeded invariant suite", None, "--budget"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latperm",
        description="Permanents of restricted displacement patterns on Z^d: "
                    "window and torus estimates, transfer matrices, Mahler "
                    "measures, and cross-checks between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, element, flags) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if element:
            sp.add_argument("--input", dest="input_path", metavar="PATH",
                            help=element + " (JSON file)")
            sp.add_argument("--inline", metavar="JSON", help=element + " (inline JSON)")
            sp.add_argument("--dim", type=int, help="expected dimension, checked against the input")
        if name == "compare":
            sp.add_argument("family", help="one of: " + ", ".join(sorted(FAMILY_DEFAULTS)))
        for flag in flags.split():
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
        text, code = _SUBCOMMANDS[cfg.command][0](cfg)
    except (CapacityError, MemoryError) as e:
        print(f"capacity budget exceeded: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ArithmeticError as e:
        print(f"error: numerical: {e}", file=sys.stderr)
        return 4
    if text:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
