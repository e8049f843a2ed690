"""Entropy and pressure estimation for restricted displacement systems.

Normalized log pattern counts over a growing window schedule give certified
upper estimates (the infimum over finite windows equals the pressure).
Finite-quotient permanents give torus estimates with no proven side (every one
measured lies at or above the pressure); the lower_* keys keep their names.
In dimension one an exact transfer matrix over claimed-positions profiles
pins the pressure to machine precision, and universal permanent bounds
sandwich everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .groupring import (
    CapacityError,
    GroupRingElement,
    TorusQuotient,
    Window,
    separated_on_quotient,
)
from .patterns import DEFAULT_BUDGET
from .permanent import _candidates, torus_permanent, window_permanent, window_permanents


@dataclass(frozen=True)
class WindowSchedule:
    """Growing sequence of windows, strictly increasing in cardinality."""

    windows: tuple[Window, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.windows) != len(self.labels):
            raise ValueError("one label per window")
        sizes = [len(w) for w in self.windows]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("window cardinalities must strictly increase")

    @staticmethod
    def boxes(dim: int, sizes) -> "WindowSchedule":
        sizes = list(sizes)
        wins = tuple(Window.box([0] * dim, [n] * dim) for n in sizes)
        labels = tuple(
            f"box{n}" if dim == 1 else "x".join([str(n)] * dim) for n in sizes
        )
        return WindowSchedule(wins, labels)

    def __iter__(self):
        return iter(zip(self.labels, self.windows))

    def __len__(self):
        return len(self.windows)


@dataclass(frozen=True)
class EstimateRow:
    """One line of an estimate report; the CLI writes its fields, in this
    order, as the JSON row object and as the CSV columns."""

    window: str
    size: int
    log_value: float
    normalized: float
    kind: str  # upper | torus | transfer | bound; for permanent, the mode


@dataclass(frozen=True)
class EstimateReport:
    """Bundle of upper estimates, torus estimates with no proven side, and bounds.

    running_infimum holds the prefix minima of the normalized window values
    in schedule order; it is nonincreasing and its last entry is the best
    certified upper value.
    """

    rows: tuple[EstimateRow, ...]
    running_infimum: tuple[float, ...]
    certified_upper: float
    lower_estimate: float | None
    lower_label: str
    transfer_value: float | None
    closed_form_lower: float
    closed_form_upper: float | None
    capacity_skipped: tuple[str, ...] = field(default=())


def _run_jobs(run, jobs, label):
    """(job, run(job)) for each job that fits the budget, in input order,
    and a "label: message" line for each whose run raised CapacityError."""
    done, skipped = [], []
    for job in jobs:
        try:
            done.append((job, run(job)))
        except CapacityError as e:
            skipped.append(f"{label(job)}: {e}")
    return done, skipped


def upper_estimates(
    f: GroupRingElement,
    schedule: WindowSchedule,
    modes: tuple[str, ...] = ("admissible", "injective"),
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[EstimateRow], list[str]]:
    """Normalized log pattern sums per window; every value upper-bounds the
    pressure. Windows whose kernel blows the node budget are skipped and
    reported, so a partial schedule still yields certified estimates.

    When every window's sorted points are a prefix of the largest window's,
    as the boxes of Z are, each mode sweeps the largest window once and
    reads every window at its cut (window_permanents), its components
    advancing cut by cut; each value is stored as it is yielded. Each window
    that sweep does not reach within the budget runs alone, so a window is
    skipped only when it blows it alone."""

    windows = schedule.windows
    sizes = [len(F) for F in windows]
    swept = {}  # (size, mode) -> value read at a cut of the largest window
    if windows and all(F.points == windows[-1].points[:n] for F, n in zip(windows, sizes)):
        for mode in modes:
            try:
                for n, v in zip(sizes, window_permanents(f, windows[-1], sizes, mode, budget)):
                    swept[n, mode] = v
            except CapacityError:
                pass  # the windows not reached run alone below

    def run(job):
        _, F, mode = job
        value = swept.get((len(F), mode))
        return value if value is not None else window_permanent(f, F, mode=mode, budget=budget)

    jobs = [(label, F, mode) for label, F in schedule for mode in modes]
    done, skipped = _run_jobs(run, jobs, lambda job: f"{job[0]}[{job[2]}]")
    rows: list[EstimateRow] = []
    for (label, F, mode), v in done:
        name = label if mode == "admissible" else f"{label}-inj"
        rows.append(EstimateRow(name, len(F), v.log, v.normalized(len(F)), "upper"))
    return rows, skipped


def torus_label(q: TorusQuotient) -> str:
    return "x".join(str(n) for n in q.moduli)


def torus_estimates(
    f: GroupRingElement,
    quotients,
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[EstimateRow], list, list[str]]:
    """Normalized log permanents on finite quotients, as rows, and the count
    of each row's torus: counts[i] is the linear permanent of rows[i], an
    exact int for integer f.

    Quotients on which distinct displacements collide raise ValueError (the
    message names the offending pair); capacity blowups are skipped and
    reported like in upper_estimates.
    """

    done, skipped = _run_jobs(lambda q: torus_permanent(f, q, budget=budget),
                              list(quotients), torus_label)
    rows = [EstimateRow(torus_label(q), q.size, v.log, v.normalized(q.size), "torus")
            for q, v in done]
    return rows, [v.linear for _, v in done], skipped


# ---------------------------------------------------------------------------
# exact transfer matrix over Z


@dataclass(frozen=True)
class Block:
    """A square matrix held as its entries: entry (dst[i], src[i]) is
    weight[i]. B @ x adds each row's entries up in the order they are held."""

    size: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.dst, weights=self.weight * x[self.src],
                           minlength=self.size)

    def dense(self) -> np.ndarray:
        D = np.zeros((self.size, self.size))
        np.add.at(D, (self.dst, self.src), self.weight)
        return D


_TRANSFER_MAX_SPAN = 20


def transfer_matrix(f: GroupRingElement) -> tuple[Block, ...]:
    """The claimed-positions transfer matrix of a nonnegative d=1 weight,
    as its diagonal blocks by increasing popcount.

    States are bitmasks of already-claimed positions in the look-ahead window
    of width K = max displacement after translating the support to start at
    zero. Entry (S', S) sums the weights of displacement choices leading from
    profile S to profile S'. A step is one row of the frontier sweep: it
    claims a free target and retires position zero, which must be claimed by
    then. So a state's popcount (the sites left of the cut sent to the right
    of it) never changes, and the matrix splits into one sector of C(K, k)
    states for each popcount k; together their spectra are the whole
    spectrum. Each sector renumbers its states by rank and lists its entries
    by increasing source state, so every row sums in column order."""
    if f.dim != 1:
        raise ValueError("transfer matrices need dimension one")
    if f.is_zero():
        raise ValueError("transfer matrix of the zero element is undefined")
    if not f.is_nonnegative():
        raise ValueError("transfer matrices need nonnegative coefficients")
    lo = min(p[0] for p in f.terms)
    shifted = {p[0] - lo: c for p, c in f.terms.items()}
    K = max(shifted)
    if K > _TRANSFER_MAX_SPAN:
        raise CapacityError(f"transfer span {K} exceeds the {_TRANSFER_MAX_SPAN} limit")
    states = np.arange(1 << K)
    # one sweep row over every state: choice a claims target a, and position
    # zero (need) is claimed once the step is done; each key keeps a copy of
    # its source state above bit K
    choices = [(1 << a, 1 << a, float(c)) for a, c in shifted.items()]
    kk, weight = _candidates(states, np.ones(states.size), states << K + 1 | states,
                             choices, 1)
    src, dst = kk >> K + 1, (kk & (2 << K) - 1) >> 1
    pop = np.zeros_like(states)
    for i in range(K):
        pop += (states >> i) & 1
    sector = pop[src]
    if np.any(pop[dst] != sector):
        raise ArithmeticError("transfer matrix has entries between popcount sectors")
    sizes = np.bincount(pop)
    rank = np.empty_like(states)
    rank[np.argsort(pop, kind="stable")] = states - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # stable, so entries of one source state keep the order of the choices
    order = np.argsort(sector << K | src, kind="stable")
    src, dst, weight = rank[src[order]], rank[dst[order]], weight[order]
    ends = np.cumsum(np.bincount(sector, minlength=K + 1)).tolist()
    return tuple(Block(int(n), src[i:j], dst[i:j], weight[i:j])
                 for n, i, j in zip(sizes, [0] + ends, ends))


_WARM_UP = 32  # steps each sector runs before the likely top one is chosen
_BOUND_EVERY = 8  # steps between Collatz-Wielandt bracket checks
# relative widening of a bracket's hi against rounding: a row of (I + B) x
# sums at most 22 nonnegative terms and every x_i is a normal float, so the
# computed ratios are within about 25 ulp of the exact ones
_BOUND_MARGIN = 1e-12


class _SectorSolve:
    """Power iteration on I + B for one sector, run in stages so that the
    sectors can take turns.

    The shift washes out rotating spectra of periodic chains; convergence is
    judged on the iterate residual, not on successive eigenvalue estimates,
    which can plateau before settling. y = (I + B) x is kept for the current
    iterate x, so its Collatz-Wielandt bracket costs no extra product.
    """

    def __init__(self, B: Block):
        self.B = B
        self.x = np.full(B.size, 1.0 / B.size)
        self.y = B @ self.x + self.x
        self.lam = 0.0
        self.steps = 0
        self.converged = False
        self.bracket: tuple[float, float] | None = None
        self.pruned = False
        self.certified = False  # a converged lam pinned by its bracket
        self.value: float | None = None  # what the sector adds to the radius

    def run(self, steps: int, tol: float) -> None:
        for _ in range(steps):
            total = self.y.sum()
            x = self.y / total
            self.lam = total - 1.0
            self.steps += 1
            if np.abs(x - self.x).sum() <= tol:
                self.converged = True
                return
            self.x = x
            self.y = self.B @ x + x

    def take_bracket(self) -> None:
        """lo <= 1 + rho(B) <= hi from the least and the largest
        ((I + B) x)_i / x_i. The bound needs x > 0, so the bracket is None
        unless every x_i is a finite normal float and the ratios are finite."""
        x = self.x
        self.bracket = None
        if x.min() >= np.finfo(float).tiny and np.isfinite(x).all():
            with np.errstate(over="ignore"):
                r = self.y / x
            lo, hi = float(r.min()), float(r.max())
            if math.isfinite(hi):
                self.bracket = (lo, hi)

    def below(self, rho: float) -> bool:
        """Whether the bracket, its hi widened by _BOUND_MARGIN, puts the
        sector's radius below rho."""
        return self.bracket is not None and \
            self.bracket[1] * (1 + _BOUND_MARGIN) < 1 + rho


def _solve_sectors(sectors: tuple[Block, ...], tol: float,
                   max_iter: int) -> list[_SectorSolve]:
    """Solve every popcount sector, the likely top one first.

    Each sector warms up for _WARM_UP steps; the one with the largest
    estimate then converges first. Every other sector runs until it
    converges or, checked every _BOUND_EVERY steps, its bracket falls below
    the radius found so far; then it is pruned and has no value.

    A converged sector's value is its lam. 1 + lam must lie in the bracket
    of its final iterate, widened by _BOUND_MARGIN; the bracket holds 1 + rho
    too, so one at most 1e-9 (1 + lam) wide certifies lam. Up to 1024
    states, dense eigenvalues check an uncertified lam to 1e-9 and give the
    value of a sector that neither converged nor was pruned; above, such a
    sector raises ArithmeticError, as does every failed check."""
    dense_ok = sum(B.size for B in sectors) <= 1 << 10
    solves = [_SectorSolve(B) for B in sectors]
    for s in solves:
        s.run(min(_WARM_UP, max_iter), tol)
    solves.sort(key=lambda s: s.lam, reverse=True)
    rho = 0.0
    for s in solves:
        while not s.converged:
            s.take_bracket()
            s.pruned = s.below(rho)
            if s.pruned or s.steps >= max_iter:
                break
            s.run(min(_BOUND_EVERY, max_iter - s.steps), tol)
        if s.converged:
            s.take_bracket()
            s.value = s.lam
            lo, hi = s.bracket or (-math.inf, math.inf)
            if not lo * (1 - _BOUND_MARGIN) <= 1 + s.lam <= hi * (1 + _BOUND_MARGIN):
                raise ArithmeticError(
                    f"power iteration ({s.lam}) lies outside its bracket {s.bracket}")
            s.certified = hi - lo <= 1e-9 * (1 + s.lam)
            if dense_ok and not s.certified:
                dense = float(np.abs(np.linalg.eigvals(s.B.dense())).max())
                if abs(dense - s.lam) > 1e-9 * max(1.0, dense):
                    raise ArithmeticError(
                        f"power iteration ({s.lam}) and eigenvalues ({dense}) disagree")
        elif not s.pruned:
            if not dense_ok:
                raise ArithmeticError(
                    f"power iteration did not converge within {max_iter} steps")
            s.value = float(np.abs(np.linalg.eigvals(s.B.dense())).max())
        if s.value is not None:
            rho = max(rho, s.value)
    return solves


def _spectral_radius(sectors: tuple[Block, ...], tol: float = 1e-13,
                     max_iter: int = 500000) -> float:
    """Largest spectral radius over the popcount sectors."""
    return max((s.value for s in _solve_sectors(sectors, tol, max_iter)
                if s.value is not None), default=0.0)


def transfer_pressure(f: GroupRingElement) -> float:
    """Exact pressure over Z: log spectral radius of the transfer matrix.

    The shift I of the power iteration on I + B mixes periodic chains only
    while B's weights are not far above 1, so a weight f = 2^k g from
    f.unit_scale() is solved as g, and k log 2 is added."""
    g, k = f.unit_scale()
    rho = _spectral_radius(transfer_matrix(g))
    if rho <= 0:
        return float("-inf")
    return math.log(rho) + k * math.log(2)


# ---------------------------------------------------------------------------
# closed-form bounds


def pressure_lower_bound(f: GroupRingElement) -> float:
    """log(||f||_1 / e), the van der Waerden floor for the pressure, as
    log ||g||_1 + k log 2 - 1 for f = 2^k g from f.unit_scale()."""
    if f.is_zero():
        return float("-inf")
    g, k = f.unit_scale()
    return math.log(g.norm1()) + k * math.log(2) - 1.0


def entropy_upper_bound(A: Window) -> float:
    """(1/|A|) log |A|!, the Bregman ceiling for the entropy of X_A."""
    n = len(A)
    if n == 0:
        raise ValueError("empty displacement set")
    return math.lgamma(n + 1) / n


# ---------------------------------------------------------------------------
# combined report


def default_tori(f: GroupRingElement, sides: range = range(2, 9)) -> list[TorusQuotient]:
    """The square quotients with the given sides on which the support stays
    separated, in the order of sides."""
    support = f.support()
    tori = [TorusQuotient((n,) * f.dim) for n in sides]
    return [q for q in tori if separated_on_quotient(support, q)[0]]


def estimate_report(
    f: GroupRingElement,
    schedule: WindowSchedule,
    tori=None,
    budget: int = DEFAULT_BUDGET,
) -> EstimateReport:
    """Run the full estimation pipeline for a nonnegative weight function."""
    if not f.is_nonnegative():
        raise ValueError("estimation needs nonnegative coefficients")
    if tori is None:
        tori = default_tori(f)
    rows: list[EstimateRow] = []
    upper_rows, skipped = upper_estimates(f, schedule, budget=budget)
    rows.extend(upper_rows)
    torus_rows, _, torus_skipped = torus_estimates(f, tori, budget=budget)
    rows.extend(torus_rows)
    skipped = skipped + torus_skipped

    transfer_value = None
    if f.dim == 1:
        try:
            transfer_value = transfer_pressure(f)
            states = 1 << (max(f.terms)[0] - min(f.terms)[0])
            rows.append(EstimateRow("transfer", states, transfer_value,
                                    transfer_value, "transfer"))
        except CapacityError as e:
            skipped.append(f"transfer: {e}")

    lower = pressure_lower_bound(f)
    rows.append(EstimateRow("closed-form-lower", len(f.support()), lower, lower,
                            "bound"))
    closed_upper = None
    if set(f.terms.values()) <= {1}:
        closed_upper = entropy_upper_bound(f.support())
        rows.append(EstimateRow("closed-form-upper", len(f.support()),
                                closed_upper, closed_upper, "bound"))

    admissible = [r for r in rows if r.kind == "upper" and not r.window.endswith("-inj")]
    infimum: list[float] = []
    for r in admissible:
        infimum.append(min(infimum[-1], r.normalized) if infimum else r.normalized)
    certified = infimum[-1] if infimum else math.inf
    torus_vals = [r.normalized for r in rows if r.kind == "torus"]
    lower_estimate = max(torus_vals) if torus_vals else None
    lower_label = "converging-lower" if f.dim == 1 else "heuristic-lower"
    return EstimateReport(
        rows=tuple(rows),
        running_infimum=tuple(infimum),
        certified_upper=certified,
        lower_estimate=lower_estimate,
        lower_label=lower_label,
        transfer_value=transfer_value,
        closed_form_lower=lower,
        closed_form_upper=closed_upper,
        capacity_skipped=tuple(skipped),
    )
