"""Determinant-side computations: logarithmic Mahler measures by torus
quadrature (with an exact root-based route in dimension one), and the
worked example families on which the two sides are compared."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .groupring import CapacityError, GroupRingElement
from .patterns import DEFAULT_BUDGET
from .entropy import (
    WindowSchedule,
    default_tori,
    pressure_lower_bound,
    torus_estimates,
    transfer_pressure,
    upper_estimates,
)

_EPS_SWEEP = (1e-8, 1e-10, 1e-12)
# bounds the cells, and so the time, of a level; memory no longer grows with
# the grid. The 4096^2 finest level of `mahler --grid 1024` takes about 0.3 s
_GRID_CELL_CAP = 1 << 24
# cells per leaf of a level's pairwise sum: the leaf buffers take 40 bytes a
# cell. numpy's add-reduce splits no range of 128 cells or fewer, so the cap
# must be at least 128
_BLOCK_CELLS = 1 << 15
# bounds the companion matrix of mahler_measure_roots: np.roots takes about
# 3 s at degree 1024 and 20 s at 2048
_ROOTS_MAX_DEGREE = 1024


@dataclass(frozen=True)
class QuadratureConfig:
    """Tensor midpoint rule parameters for torus integrals of log|f|."""

    grid: int = 64
    refinements: int = 2
    eps: float = 1e-10

    def __post_init__(self):
        if self.grid < 8:
            raise ValueError("grid must be at least 8 points per dimension")
        if not 0 < self.eps <= 1e-6:
            raise ValueError("eps must lie in (0, 1e-6]")
        if not 1 <= self.refinements <= 6:
            raise ValueError("refinements must lie in 1..6")


@dataclass(frozen=True)
class MahlerResult:
    """Quadrature value with refinement diagnostics.

    levels holds (grid, value) pairs at the configured eps floor; the error
    estimate combines the last refinement difference with the spread over the
    eps sweep; converged is False when refinement stopped shrinking the
    difference, flagging a value that should not be trusted at face value.
    """

    value: float
    error_estimate: float
    converged: bool
    levels: tuple[tuple[int, float], ...]
    eps_spread: float


def _pairwise(lo: int, hi: int, leaf):
    """leaf(lo, hi) over the leaves of cells [lo, hi), added up the tree.

    The split is numpy's pairwise summation of a contiguous array: a range of
    n > _BLOCK_CELLS cells splits at n2 = n//2 - (n//2) % 8. np.add.reduce
    of a leaf, from 0.0, makes the same split inside it, so the tree sum of
    the leaf sums is bit-identical to the add-reduce of the whole range."""
    n = hi - lo
    if n <= _BLOCK_CELLS:
        return leaf(lo, hi)
    mid = lo + n // 2 - n // 2 % 8
    return _pairwise(lo, mid, leaf) + _pairwise(mid, hi, leaf)


def _phase_tables(terms, d: int, grid: int):
    """(p, c, table) for each of the sorted terms of one level: table is None
    unless the grid is a power of two and the term moves along two or more
    axes, the last among them, with a table no longer than the level's cells.

    On such a grid every midpoint (k+1/2)/grid is an exact dyadic, so the
    term's float phase is exactly N/(2 grid), N = sum p_a (2 k_a + 1): with
    |N| < 2 grid sum |p_a| = span below the level's cells, no float step of
    the phase rounds. The table holds c exp(2 pi i N/(2 grid)) at N + span,
    made by the float operations of _fill_abs's per-cell path, so each entry
    has the bits that path gives any cell of that phase."""
    out = []
    for p, c in terms:
        span = 2 * grid * sum(map(abs, p))
        tab = None
        if not grid & (grid - 1) and p[-1] and sum(map(bool, p)) > 1 \
                and 2 * span < grid ** d:
            tab = np.multiply(2j * np.pi, np.arange(-span, span + 1) / (2 * grid))
            np.exp(tab, out=tab)
            tab *= c
        out.append((p, c, tab))
    return out


def _fill_abs(terms, d: int, grid: int, lo: int, hi: int, bufs) -> np.ndarray:
    """|f| on cells [lo, hi) of the shifted midpoint grid ((k+1/2)/grid per
    axis) in C order, written to the float buffer of bufs = (complex,
    complex, float), each of at least hi - lo cells. terms are the level's
    (p, c, table) from _phase_tables.

    Each term is c exp(2 pi i phase), with the phase summed over only the
    axes the term moves along, in axis order, and broadcast over the rest. A
    term that moves along one axis is thus a 1-D character, with no exp per
    cell. Adding a zero exponent's phase is exact, so every cell is
    bit-identical to exp of the phase summed over all axes. A product of
    per-axis characters would differ in the last bit, which moves a level by
    an ulp and the error estimate, a difference of levels, by up to 2.5e-10
    relative.

    A term with a table takes no exp per cell either: on a power-of-two grid
    its phase is exactly N/(2 grid), and the cell's integer N, a row part
    plus a column part written to the float buffer, picks the entry with
    exp's bits for that phase. The per-cell exp stays where a term has no
    table: on other grids, where the float phase is not a function of N, and
    where the table would be longer than the level's cells. The range is
    cut into at most three rectangles of rows of the last axis: a partial
    first row, whole rows, a partial last row."""
    vals, zbuf, fbuf = bufs
    n = hi - lo
    vals[:n] = 0
    # rectangles (first row, rows, first column, column stop), in order
    (q0, c0), (q1, c1) = divmod(lo, grid), divmod(hi, grid)
    top = q0 + (c0 > 0)
    rects = [(q0, 1, c0, c1)] if q0 == q1 else [
        r for r in [(q0, top - q0, c0, grid), (top, q1 - top, 0, grid), (q1, 1, 0, c1)]
        if r[1] and r[3] > r[2]]
    at = 0
    for q, rows, c0, c1 in rects:
        cols = c1 - c0
        out = vals[at:at + rows * cols].reshape(rows, cols)
        at += rows * cols
        # the first d - 1 axes vary along the rows, the last along the columns
        row = q + np.arange(rows)
        ks = [(row // grid ** (d - 2 - a) % grid)[:, None]
              for a in range(d - 1)] + [np.arange(c0, c1)]
        axes = [(k + 0.5) / grid for k in ks]
        for p, c, tab in terms:
            moving = [a for a in range(d) if p[a]]
            if tab is not None:
                # N + span, in the float buffer, indexes the table
                idx = fbuf.view(np.intp)[:rows * cols].reshape(rows, cols)
                np.add(sum(p[a] * (2 * ks[a] + 1) for a in moving[:-1]) + len(tab) // 2,
                       p[-1] * (2 * ks[-1] + 1), out=idx)
                # mode="wrap" writes straight to out, where "raise" buffers
                out += np.take(tab, idx, out=zbuf[:idx.size].reshape(rows, cols),
                               mode="wrap")
                continue
            if p[-1]:
                # the phase spans the columns: summed into the buffers
                shape = (rows, cols) if len(moving) > 1 else (cols,)
                phase = fbuf[:math.prod(shape)].reshape(shape)
                np.multiply(p[-1], axes[-1], out=phase)
                # a + b == b + a in floats, so this is the phase in axis order
                phase += sum(p[a] * axes[a] for a in moving[:-1])
                z = zbuf[:phase.size].reshape(shape)
                np.multiply(2j * np.pi, phase, out=z)
            else:
                # 0-d for the constant term
                z = np.asarray(2j * np.pi * sum(p[a] * axes[a] for a in moving))
            np.exp(z, out=z)
            z *= c
            out += z
    return np.abs(vals[:n], out=fbuf[:n])


def _level_sums(f: GroupRingElement, grid: int, eps_levels):
    """Sums over the midpoint grid of log max(|f|, eps), one per eps in the
    ascending eps_levels, each bit-identical to the add-reduce of a whole
    level array. One _pairwise walk fills each leaf by _fill_abs, floors it
    at the smallest eps, logs it and floors it at each eps in turn, in place,
    as log is monotone and max(max(x, a), b) = max(x, b) for a <= b; the
    leaf's per-eps sums are added up the split tree.

    On a power-of-two grid each term that moves along two or more axes, the
    last among them, gets a phase table for the level (_phase_tables),
    dropped with the level: 4 grid sum |p| + 1 complex entries, 16 bytes
    each, so 256 KB for 2 + 3u1 + u2 - 2u1u2 at the finest level of grid 512
    (2048), and never more than the level's cells."""
    terms = _phase_tables(sorted(f.terms.items()), f.dim, grid)
    floors = [np.log(eps) for eps in eps_levels]
    cells = grid ** f.dim
    # no leaf is longer than the cap or the level
    size = min(cells, _BLOCK_CELLS)
    bufs = (np.empty(size, complex), np.empty(size, complex), np.empty(size))

    def leaf(lo, hi):
        logs = _fill_abs(terms, f.dim, grid, lo, hi, bufs)
        np.maximum(logs, eps_levels[0], out=logs)
        np.log(logs, out=logs)
        return np.array([float(np.add.reduce(np.maximum(logs, fl, out=logs),
                                             initial=0.0)) for fl in floors])

    return _pairwise(0, cells, leaf)


def mahler_measure(
    f: GroupRingElement,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> MahlerResult:
    """Mean of log|f| over the torus by midpoint quadrature on refined grids.

    Log singularities (zeros of f on the torus) are regularized by flooring
    |f| at eps; the returned error estimate adds the spread over a fixed eps
    sweep to the last refinement difference, and Richardson-style
    extrapolation is applied when the differences shrink geometrically.
    Every grid level is checked against the cell cap before any runs. A
    level is summed in one serial walk of its leaves, in numpy's pairwise
    order (_level_sums), so no array spans the grid and each level is
    bit-identical to the mean of a whole level array; memory stays a few MB
    whatever the grid.
    When max |c| < 1, where the eps floor must be relative, or sum |c| >=
    2^1000, where the terms could sum to inf, the levels are taken on g,
    f = 2^k g from f.unit_scale(), and k log 2 goes back onto each level.
    Other elements keep their bits, as an ulp in a level moves the error
    estimate by up to 2.5e-10 relative.
    """
    if f.is_zero():
        raise ValueError("mahler measure of the zero element is undefined")
    g, k = f.unit_scale()
    f, k = (g, k) if k < 0 or g.norm1() >= 2.0 ** (1000 - k) else (f, 0)
    grids = [cfg.grid << i for i in range(cfg.refinements + 1)]
    for g in grids:
        if g ** f.dim > _GRID_CELL_CAP:
            raise CapacityError(f"quadrature grid {g}^{f.dim} exceeds the cell cap")
    eps_levels = sorted(set(_EPS_SWEEP) | {cfg.eps})
    values = {eps: [] for eps in eps_levels}
    for g in grids:
        for eps, total in zip(eps_levels, _level_sums(f, g, eps_levels)):
            values[eps].append(float(total) / g ** f.dim + k * math.log(2))
    main = values[cfg.eps]
    diffs = [b - a for a, b in zip(main, main[1:])]
    converged = len(diffs) < 2 or abs(diffs[-1]) <= abs(diffs[-2]) + 1e-15
    value = main[-1]
    if len(diffs) >= 2 and diffs[-2] != 0:
        ratio = diffs[-1] / diffs[-2]
        if 0 < abs(ratio) < 1:
            value = main[-1] + diffs[-1] * ratio / (1 - ratio)
    finals = [values[eps][-1] for eps in _EPS_SWEEP]
    eps_spread = max(finals) - min(finals)
    error = abs(diffs[-1]) + eps_spread
    levels = tuple(zip(grids, main))
    return MahlerResult(value, error, converged, levels, eps_spread)


def mahler_measure_roots(f: GroupRingElement) -> float:
    """Exact one-dimensional Mahler measure: log of the leading coefficient
    magnitude plus log-magnitudes of the roots outside the unit circle.

    The roots are those of g, f = 2^k g from f.unit_scale(), between its
    first and last nonzero terms: a zero end is a root at 0 or a lower
    degree. np.roots divides by the leading coefficient; where that
    overflows, the reciprocal polynomial u^n g(1/u), which has the same
    measure, is used. ArithmeticError when both orientations overflow, and
    CapacityError when the span of the terms exceeds _ROOTS_MAX_DEGREE."""
    if f.dim != 1:
        raise ValueError("root-based mahler measure needs dimension one")
    if f.is_zero():
        raise ValueError("mahler measure of the zero element is undefined")
    g, k = f.unit_scale()
    support = [p[0] for p, c in g.terms.items() if c]
    degree = max(support) - min(support)
    if degree > _ROOTS_MAX_DEGREE:
        raise CapacityError(f"root-based mahler measure of degree {degree}"
                            f" exceeds the {_ROOTS_MAX_DEGREE} cap")
    forward = [g.coef((e,)) for e in range(max(support), min(support) - 1, -1)]
    for coeffs in (forward, forward[::-1]):
        if all(math.isfinite(c / coeffs[0]) for c in coeffs[1:]):
            break
    else:
        raise ArithmeticError("root finding overflows in both orientations")
    value = math.log(abs(coeffs[0])) + k * math.log(2)
    if len(coeffs) > 1:
        for r in _merge_multiple_roots(coeffs, np.roots(coeffs)):
            m = abs(r)
            if m > 1:
                value += math.log(m)
    return value


_ROOT_LINK = 1e-2  # relative distance below which two roots may split one
_ROOT_EVAL_SLACK = 1e3  # rounding allowance, in eps, on p(mean) of a cluster


def _merge_multiple_roots(coeffs, roots: np.ndarray) -> np.ndarray:
    """The roots, with each cluster that splits a multiple root replaced by
    copies of its mean.

    np.roots scatters a k-fold root by about eps^(1/k), so part of a multiple
    root on the unit circle lands outside it; the mean of the scattered
    cluster is accurate to O(eps). A cluster of roots linked by distances
    below _ROOT_LINK counts as one multiple root when the polynomial vanishes
    at its mean to rounding accuracy. Simple roots are returned unchanged.
    """
    clusters: list[list[int]] = []
    for i, r in enumerate(roots):
        tol = _ROOT_LINK * max(1.0, abs(r))
        merged, rest = [i], []
        for c in clusters:
            if min(abs(r - roots[j]) for j in c) <= tol:
                merged += c
            else:
                rest.append(c)
        clusters = rest + [merged]
    out = roots.copy()
    sizes = np.abs(coeffs)
    for c in clusters:
        if len(c) == 1:
            continue
        mean = roots[c].mean()
        slack = _ROOT_EVAL_SLACK * np.finfo(float).eps * np.polyval(sizes, abs(mean))
        if abs(np.polyval(coeffs, mean)) <= slack:
            out[c] = mean
    return out


# ---------------------------------------------------------------------------
# example families


class Family(NamedTuple):
    """A compare family: a nonnegative f and its signed representatives f',
    each with |f'| = f.

    defaults holds the parameters and their defaults, in order, and K_floor
    K's least value, None where there is no K. terms(K) gives f's terms as
    (exponent, parameter) pairs, in insertion order. Each string in signs is
    one representative, one sign per term of f."""

    defaults: dict
    K_floor: int | None
    terms: Callable[[int | None], list]
    signs: tuple[str, ...]


FAMILIES = {
    "trinomial-Z": Family(
        {"a": 1.0, "b": 1.0, "c": 1.0}, None,
        lambda K: [((2,), "a"), ((1,), "b"), ((0,), "c")], ("++-",)),
    "three-point-Z": Family(
        {"a": 1.0, "b": 1.0, "c": 1.0, "K": 3}, 2,
        lambda K: [((K,), "a"), ((K - 1,), "b"), ((0,), "c")], ("++-", "+++")),
    "four-point-Z": Family(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "K": 3}, 3,
        lambda K: [((K,), "a"), ((K - 1,), "b"), ((1,), "c"), ((0,), "d")],
        ("+++-", "++-+")),
    "affine-Z2": Family(
        {"a": 1.0, "b": 1.0, "c": 1.0}, None,
        lambda K: [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "c")], ("+++",)),
    "quad-Z2": Family(
        {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, None,
        lambda K: [((0, 0), "a"), ((1, 0), "b"), ((0, 1), "c"), ((1, 1), "d")],
        ("+++-", "+-++")),
    # the Kasteleyn signs
    "dimer": Family(
        {"a": 1.0, "b": 1.0}, None,
        lambda K: [((1, 0), "a"), ((-1, 0), "a"), ((0, 1), "b"), ((0, -1), "b")],
        ("-+++",)),
}


@dataclass(frozen=True)
class FamilyInstance:
    """One parameterized family member: the nonnegative permanent-side element
    and the signed determinant-side representative(s) it is compared with."""

    family: str
    params: tuple[tuple[str, float], ...]
    dim: int
    permanent_element: GroupRingElement
    det_elements: tuple[GroupRingElement, ...]

    def params_label(self) -> str:
        return ";".join(f"{k}={v:g}" for k, v in self.params)


def family_instance(family: str, params: dict) -> FamilyInstance:
    """Build a family member from its parameter dict, validating ranges."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    row = FAMILIES[family]
    names = tuple(row.defaults)
    if set(params) != set(names):
        raise ValueError(f"family {family} needs parameters {names}")
    vals = {k: params[k] for k in names}
    for k in names:
        if not -math.inf < vals[k] < math.inf:
            raise ValueError(f"parameter {k} must be finite")
        if k != "K" and not vals[k] > 0:
            raise ValueError(f"parameter {k} must be positive")
    if row.K_floor is not None:
        K = vals["K"]
        if K != int(K) or K < row.K_floor:
            raise ValueError(f"K must be an integer >= {row.K_floor}")
        vals["K"] = int(K)
    terms = row.terms(vals.get("K"))

    def signed(signs: str) -> GroupRingElement:
        return GroupRingElement(len(terms[0][0]), {
            p: vals[k] if s == "+" else -vals[k]
            for (p, k), s in zip(terms, signs, strict=True)})

    perm = signed("+" * len(terms))
    ordered = tuple((k, float(vals[k])) for k in names)
    return FamilyInstance(family, ordered, perm.dim, perm, tuple(map(signed, row.signs)))


@dataclass(frozen=True)
class FamilyReport:
    """Both sides of the comparison for one family member.

    per_low and per_high are certified: the transfer value twice in dimension
    one, the van der Waerden floor and the best window estimate in dimension
    two. torus_max is the best finite-quotient value, reported separately
    because quotient values can overshoot the permanent in dimension two.
    capacity_skipped names the windows and tori left out for the budget."""

    instance: FamilyInstance
    per_low: float
    per_high: float
    per_label: str
    det_results: tuple[MahlerResult, ...]
    det_value: float
    det_error: float
    torus_max: float | None = None
    capacity_skipped: tuple[str, ...] = ()


def evaluate_family(
    family: str,
    params: dict,
    cfg: QuadratureConfig = QuadratureConfig(),
    budget: int = DEFAULT_BUDGET,
) -> FamilyReport:
    """Evaluate the permanent and determinant sides of one family member.

    The determinant side is the max over the signed representatives'
    quadrature Mahler measures. The permanent side is exact via the transfer
    matrix in dimension one and a window/torus bracket in dimension two, on
    the boxes 2, 4 and 6 and the separated square tori up to 4."""
    inst = family_instance(family, params)
    det_results = tuple(mahler_measure(g, cfg) for g in inst.det_elements)
    det_value = max(r.value for r in det_results)
    det_error = max(r.error_estimate for r in det_results)
    if inst.dim == 1:
        p = transfer_pressure(inst.permanent_element)
        return FamilyReport(inst, p, p, "transfer-exact", det_results,
                            det_value, det_error)
    f = inst.permanent_element
    upper_rows, skipped = upper_estimates(f, WindowSchedule.boxes(2, [2, 4, 6]),
                                          modes=("admissible",), budget=budget)
    if not upper_rows:
        raise CapacityError("no window fits the budget: " + "; ".join(skipped))
    torus_rows, _, torus_skipped = torus_estimates(f, default_tori(f, range(2, 5)),
                                                   budget=budget)
    per_high = min(r.normalized for r in upper_rows)
    per_low = pressure_lower_bound(f)
    torus_max = max((r.normalized for r in torus_rows), default=None)
    return FamilyReport(inst, per_low, per_high, "certified-bracket",
                        det_results, det_value, det_error, torus_max,
                        tuple(skipped + torus_skipped))
