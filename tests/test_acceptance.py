"""Acceptance gate: ten criteria covering exact identities, oracle
equivalence, convergence cross-checks, and classical bounds.

Each criterion is one test and prints one PASS/FAIL gate line (visible with
pytest -s or in captured output). The criteria combine exact finite
identities, independent-oracle equivalence, and convergence checks at desk
scale; tolerances are stated inline.
"""

import itertools
import math
import time

import mpmath
import numpy as np
import oracles

from latperm.entropy import (
    WindowSchedule,
    transfer_pressure,
    upper_estimates,
)
from latperm.fkdet import mahler_measure
from latperm.groupring import GroupRingElement, TorusQuotient, Window, interior
from latperm.permanent import (
    bregman_bound,
    det_identity_check,
    doubly_stochastic_extension,
    finite_det_ffstar,
    matrix_permanent,
    torus_permanent,
    vdw_bound,
    window_permanent,
)


def _gate(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# random instance helpers


def _nonzero_coef(rng):
    c = 0
    while c == 0:
        c = int(rng.integers(-2, 3))
    return c


def _signed_element(rng, dim):
    span = 3 if dim == 1 else 1
    pts = {tuple(int(v) for v in rng.integers(-span, span + 1, size=dim))
           for _ in range(int(rng.integers(1, 4)))}
    return GroupRingElement(dim, {p: _nonzero_coef(rng) for p in pts})


def _positive_element(rng, dim, span=3):
    pts = {tuple(int(v) for v in rng.integers(0, span + 1, size=dim))
           for _ in range(int(rng.integers(1, 4)))}
    return GroupRingElement(dim, {p: int(rng.integers(1, 4)) for p in pts})


def _window(rng, dim, max_sites=8):
    if dim == 1:
        if rng.random() < 0.7:
            return Window.box([int(rng.integers(-2, 3))],
                              [int(rng.integers(2, max_sites + 1))])
        k = int(rng.integers(2, max_sites + 1))
        return Window.of({(int(v),) for v in rng.integers(-4, 5, size=k)})
    if rng.random() < 0.7:
        shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (4, 2)]
        return Window.box([0, 0], shapes[int(rng.integers(0, len(shapes)))])
    k = int(rng.integers(2, 7))
    return Window.of({(int(a), int(b))
                      for a, b in rng.integers(-2, 3, size=(k, 2))})


_DET_INSTANCES = None


def _det_identity_instances():
    """200 signed Z instances and 50 signed Z^2 instances, |A|<=3, |F|<=8."""
    global _DET_INSTANCES
    if _DET_INSTANCES is None:
        rng = np.random.default_rng(101)
        inst = [(_signed_element(rng, 1), _window(rng, 1)) for _ in range(200)]
        inst += [(_signed_element(rng, 2), _window(rng, 2)) for _ in range(50)]
        _DET_INSTANCES = inst
    return _DET_INSTANCES


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_det_identity():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for f, F in _det_identity_instances():
        res = det_identity_check(f, F)
        worst = max(worst, res["abs_error"] / max(1.0, abs(res["lhs_det"])))
        if res["abs_error"] > 1e-9 * max(1.0, abs(res["lhs_det"])):
            ok = False
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        ok = False
    _gate(1, "finite determinant identity", ok,
          f"250 instances, max rel err {worst:.3g}, {elapsed:.1f} s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    instances = [(_positive_element(rng, 1), _window(rng, 1, max_sites=8))
                 for _ in range(12)]
    instances += [(_signed_element(rng, 1), _window(rng, 1, max_sites=7))
                  for _ in range(6)]
    instances += [(_signed_element(rng, 2), _window(rng, 2)) for _ in range(4)]
    # two instances near the 10^6 enumeration cap
    f3 = GroupRingElement(1, {(0,): 1, (1,): 2, (3,): 1})
    instances.append((f3, Window.box([0], [12])))
    f4 = GroupRingElement(2, {(0, 0): 1, (1, 0): 1, (0, 1): 2, (1, 1): 1})
    instances.append((f4, Window.box([0, 0], [3, 3])))
    checked = 0
    ok = True
    worst = 0.0
    for f, F in instances:
        A = f.support()
        if len(A) ** len(F) > 10 ** 6:
            continue
        checked += 1
        req = interior(F, A).points
        want_inj = oracles.naive_window_sum(f.terms, F.points, mode="injective")
        want_adm = oracles.naive_window_sum(f.terms, F.points,
                                            mode="admissible", required=req)
        if window_permanent(f, F, mode="injective").linear != want_inj:
            ok = False
        if window_permanent(f, F, mode="admissible").linear != want_adm:
            ok = False
        if len(F) <= 6:
            for mode in ("admissible", "injective"):
                vals = [window_permanent(f, F, mode=mode, backend=b,
                                         exact=False).linear
                        for b in ("sweep", "dfs", "ryser")]
                spread = (max(vals) - min(vals)) / max(1.0, abs(max(vals)))
                worst = max(worst, spread)
                if spread > 1e-10:
                    ok = False
    _gate(2, "oracle equivalence", ok,
          f"{checked} instances exact, backend spread {worst:.3g}")


def test_criterion_03_subadditivity():
    rng = np.random.default_rng(303)
    ok = True
    checked = 0
    for i in range(500):
        dim = 1 if i % 2 == 0 else 2
        f = _positive_element(rng, dim, span=2)
        if dim == 1:
            F1 = Window.box([int(rng.integers(-2, 3))],
                            [int(rng.integers(2, 5))])
            F2 = Window.of({(int(v),) for v in rng.integers(-4, 5, size=3)})
        else:
            F1 = Window.box([0, 0], [2, 2])
            F2 = Window.of({(int(a), int(b))
                            for a, b in rng.integers(-1, 3, size=(3, 2))})
        union = Window.of(set(F1.points) | set(F2.points))
        kappa = f.min_positive()
        g = GroupRingElement(dim, {p: c + 1 for p, c in f.terms.items()})
        checked += 1
        for mode in ("admissible", "injective"):
            pu = window_permanent(f, union, mode=mode).linear
            p1 = window_permanent(f, F1, mode=mode).linear
            p2 = window_permanent(f, F2, mode=mode).linear
            lhs = pu / kappa ** len(union)
            rhs = (p1 / kappa ** len(F1)) * (p2 / kappa ** len(F2))
            if not lhs <= rhs * (1 + 1e-12):
                ok = False
            pfg = window_permanent(f.pointwise(g), F1, mode=mode).linear
            pg = window_permanent(g, F1, mode=mode).linear
            if not pfg <= p1 * pg * (1 + 1e-12):
                ok = False
    _gate(3, "finite subadditivity", ok,
          f"{checked} instances, union and pointwise-product inequalities")


def test_criterion_04_golden_family():
    f = GroupRingElement.indicator(Window.of([(0,), (1,), (2,)]))
    t = transfer_pressure(f)
    g = GroupRingElement(1, {(2,): 1, (1,): 1, (0,): -1})
    m = mahler_measure(g)
    ok = abs(t - m.value) <= 1e-3
    ok = ok and abs(t - 0.481212) <= 1e-5 and abs(m.value - 0.481212) <= 1e-5
    F = Window.box([0], [12])
    adm = window_permanent(f, F, mode="admissible").normalized(12)
    inj = window_permanent(f, F, mode="injective").normalized(12)
    ok = ok and adm > t and inj > t
    torus_vals = [torus_permanent(f, TorusQuotient((n,))).normalized(n)
                  for n in range(5, 15)]
    gap = max(torus_vals) - t
    ok = ok and abs(gap) <= 0.05
    _gate(4, "golden family", ok,
          f"transfer={t:.9f} mahler={m.value:.9f} "
          f"box12={adm:.4f} torus-gap={gap:.4f}")


def test_criterion_05_zero_entropy_family():
    f = GroupRingElement.indicator(Window.of([(0,), (1,)]))
    counts = [torus_permanent(f, TorusQuotient((n,))).linear
              for n in range(4, 13)]
    p = transfer_pressure(f)
    ok = all(c == 2 for c in counts) and abs(p) <= 1e-12
    _gate(5, "zero-entropy family", ok,
          f"counts={sorted(set(counts))} transfer={p:.3g}")


def test_criterion_06_bound_sandwich():
    ok = True
    min_gap = math.inf
    checked = 0
    for r in range(1, 6):
        for A in itertools.combinations(range(7), r):
            fA = GroupRingElement.indicator(Window.of([(a,) for a in A]))
            p = transfer_pressure(fA)
            lo = math.log(r) - 1.0
            hi = math.lgamma(r + 1) / r
            checked += 1
            if not (lo <= p + 1e-12 and p <= hi + 1e-12):
                ok = False
            if r >= 3:
                min_gap = min(min_gap, p - lo)
                if not p - lo > 1e-9:
                    ok = False
    _gate(6, "bound sandwich", ok,
          f"{checked} displacement sets, min strict gap {min_gap:.4f}")


def test_criterion_07_dimer_bracket():
    start = time.perf_counter()
    # the dimer's determinant side in closed form: 2G/pi, G Catalan's constant
    det = float(2 * mpmath.catalan / mpmath.pi)
    f = GroupRingElement(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    rows, skipped = upper_estimates(f, WindowSchedule.boxes(2, [6]))
    ok = not skipped and all(det < r.normalized for r in rows)
    torus_vals = []
    for mod in ((4, 4), (5, 5), (6, 6), (8, 8)):
        q = TorusQuotient(mod)
        torus_vals.append(torus_permanent(f, q).normalized(q.size))
    ok = ok and det > max(torus_vals) - 0.15
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        ok = False
    _gate(7, "dimer bracket", ok,
          f"det={det:.6f} window-min={min(r.normalized for r in rows):.4f} "
          f"torus-max={max(torus_vals):.4f}, {elapsed:.1f} s")


def test_criterion_08_per_ge_det():
    ok = True
    worst = -math.inf
    for f, F in _det_identity_instances():
        det = finite_det_ffstar(f, F)
        iper = window_permanent(f.abs(), F, mode="injective").linear
        slack = det - float(iper) ** 2
        worst = max(worst, slack)
        if det > float(iper) ** 2 * (1 + 1e-9) + 1e-12:
            ok = False
    _gate(8, "per >= det finite inequality", ok,
          f"250 instances, max det - iper^2 = {worst:.3g}")


def test_criterion_09_classical_bounds():
    rng = np.random.default_rng(909)
    ok = True
    for k in range(100):
        dim = 1 if k < 70 else 2
        span = 3 if dim == 1 else 1
        pts = {tuple(int(v) for v in rng.integers(0, span + 1, size=dim))
               for _ in range(int(rng.integers(1, 4)))}
        terms = {p: float(rng.random() + 0.1) for p in pts}
        total = sum(terms.values())
        f = GroupRingElement(dim, {p: c / total for p, c in terms.items()})
        if dim == 1:
            F = Window.box([0], [int(rng.integers(2, 6))])
        else:
            F = Window.box([0, 0], [2, 2])
        C, ground = doubly_stochastic_extension(f, F)
        n = len(ground)
        per = matrix_permanent(C)
        if not math.log(max(per, 1e-300)) >= vdw_bound(n) - 1e-9:
            ok = False
    for _ in range(100):
        n = int(rng.integers(2, 9))
        density = 0.3 + 0.5 * rng.random()
        M = (rng.random((n, n)) < density).astype(int)
        per = matrix_permanent(M, exact=True)
        logper = math.log(per) if per > 0 else float("-inf")
        if not logper <= bregman_bound(M) + 1e-9:
            ok = False
    _gate(9, "classical bounds", ok,
          "100 van der Waerden floors, 100 Bregman ceilings")


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(1010)
    ok = True
    for i in range(30):
        dim = 1 if i % 2 == 0 else 2
        f = _positive_element(rng, dim, span=2)
        F = (_window(rng, 1, max_sites=5) if dim == 1
             else Window.box([0, 0], [2, 2]))
        s = tuple(int(v) for v in rng.integers(-3, 4, size=dim))
        A = f.support()
        for mode in ("admissible", "injective"):
            base = window_permanent(f, F, mode=mode).linear
            shifted = window_permanent(f, F.translate(s), mode=mode).linear
            moved = window_permanent(f.translate(s), F, A=A.translate(s),
                                     mode=mode).linear
            if not base == shifted == moved:
                ok = False
            if window_permanent(f.scale(2), F, mode=mode).linear != \
                    base * 2 ** len(F):
                ok = False
            g = GroupRingElement(dim, {p: c + int(rng.integers(0, 2))
                                       for p, c in f.terms.items()})
            if not window_permanent(g, F, A=A, mode=mode).linear >= base:
                ok = False
    worst_adj = 0.0
    for _ in range(20):
        g = _positive_element(rng, 1, span=2)
        h = _positive_element(rng, 1, span=2)
        pg, ph = transfer_pressure(g), transfer_pressure(h)
        worst_adj = max(worst_adj, abs(transfer_pressure(g.adjoint()) - pg))
        if abs(transfer_pressure(g.adjoint()) - pg) > 1e-6:
            ok = False
        if not transfer_pressure(g.convolve(h)) >= pg + ph - 1e-6:
            ok = False
    _gate(10, "invariance suite", ok,
          f"30 window instances exact, 20 transfer pairs, "
          f"adjoint dev {worst_adj:.3g}")
