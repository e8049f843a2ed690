"""Tests for Mahler measure quadrature, finite determinant sections, the
finite inequality det <= iper^2, example families, and the constant-sign
facts of signed pattern terms."""

import gc
import importlib.util
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import oracles
import pytest
import scipy.integrate as si
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latperm.fkdet as fkdet
from latperm.entropy import WindowSchedule
from latperm.fkdet import (
    QuadratureConfig,
    evaluate_family,
    family_instance,
    mahler_measure,
    mahler_measure_roots,
)
from latperm.groupring import CapacityError, GroupRingElement, Window
from latperm.permanent import window_permanent

GOLDEN = math.log((1 + math.sqrt(5)) / 2)
CFG = QuadratureConfig()

# finite determinant sections live with their one caller, the script
_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "section_convergence.py"
_spec = importlib.util.spec_from_file_location("section_convergence", _SCRIPT)
section_convergence = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(section_convergence)
fk_finite_sections = section_convergence.fk_finite_sections


def poly(coeffs: dict) -> GroupRingElement:
    return GroupRingElement(1, {(k,): v for k, v in coeffs.items()})


def per_vs_det(f: GroupRingElement, n: int) -> tuple[float, float, bool]:
    """On the box of side n: the normalized injective permanent of |f|, the
    determinant section, and whether det <= (injective sum)^2 holds."""
    (section,) = fk_finite_sections(f, WindowSchedule.boxes(1, [n]))
    v = window_permanent(f.abs(), Window.box([0], [n]), mode="injective")
    # a section without a positive determinant is -inf and always below
    logdet = 2 * n * section.value
    ok = section.value == float("-inf") or \
        logdet <= 2 * v.log + 1e-9 * max(1.0, abs(logdet))
    return v.normalized(n), section.value, ok


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(grid=4)
        with pytest.raises(ValueError):
            QuadratureConfig(eps=1e-5)
        with pytest.raises(ValueError):
            QuadratureConfig(eps=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(refinements=0)


class TestMahlerMeasure:
    def test_constant_gives_log(self):
        r = mahler_measure(GroupRingElement(1, {(0,): 5.0}), CFG)
        assert abs(r.value - math.log(5)) < 1e-12
        assert r.error_estimate < 1e-12
        assert r.converged

    def test_monomial_shift_invariance(self):
        f = poly({0: -1, 1: 1, 2: 1})
        g = poly({7: -1, 8: 1, 9: 1})
        assert mahler_measure(f, CFG).value == mahler_measure(g, CFG).value

    def test_golden_matches_roots_and_closed_form(self):
        f = poly({0: -1, 1: 1, 2: 1})
        r = mahler_measure(f, CFG)
        assert abs(r.value - GOLDEN) < 1e-9
        assert abs(mahler_measure_roots(f) - GOLDEN) < 1e-12

    def test_circle_zero_regularized(self):
        r = mahler_measure(poly({0: 1, 1: 1}), CFG)
        assert abs(r.value) <= max(r.error_estimate, 1e-6)
        assert r.error_estimate > 0
        assert r.converged

    def test_adjoint_same_value(self):
        f = poly({-1: 2, 0: 1, 2: -1})
        assert mahler_measure(f, CFG).value == mahler_measure(f.adjoint(), CFG).value

    def test_two_dim_affine_matches_slice_oracle(self):
        # integrating out one variable by Jensen leaves log max(|2cos(pi t)|, 1)
        oracle, _ = si.quad(
            lambda t: math.log(max(abs(2 * math.cos(math.pi * t)), 1.0)), 0, 1,
            limit=200)
        f = GroupRingElement(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        r = mahler_measure(f, CFG)
        assert abs(r.value - oracle) < 1e-6

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mahler_measure(GroupRingElement(1, {}), CFG)

    def test_grid_capacity(self):
        f = GroupRingElement(2, {(0, 0): 1, (1, 1): 1})
        with pytest.raises(CapacityError):
            mahler_measure(f, QuadratureConfig(grid=8192))

    def test_grid_capacity_checked_before_any_level(self, monkeypatch):
        # in 4-D at grid 40 the first level fits and the second, 80^4, does not
        def level(*args, **kwargs):
            raise AssertionError("a quadrature level ran")

        monkeypatch.setattr(fkdet, "_level_sums", level)
        f = GroupRingElement(4, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1,
                                 (0, 1, 0, 0): 1, (0, 0, 1, 1): 1})
        with pytest.raises(CapacityError, match=r"grid 80\^4 exceeds the cell cap"):
            mahler_measure(f, QuadratureConfig(grid=40))

    @pytest.mark.parametrize("span", [1, 2])
    @pytest.mark.parametrize("terms,grid", [
        ({(0,): 1, (1,): 1, (2,): -1}, 64),
        ({(-3,): 0.5, (0,): -2, (7,): 1.25}, 64),
        ({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -1}, 64),
        ({(-1, 0): 1, (0, 1): 2, (0, -1): 2, (1, 0): -1}, 32),
        ({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}, 16),
        ({(3, -2, 1): 1.5, (0, 0, 0): -1, (1, 1, 1): 0.25}, 16),
        # power-of-two grids: the multi-axis terms read phase tables
        ({(2, -3): 0.7, (1, 1): -1.3, (0, 0): 1}, 128),
        ({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): -1,
          (1, -1, 0, 2): 0.5}, 8),
        # a table of 4 * 16 * 301 + 1 entries would outgrow the 256 cells
        ({(1, 300): 1, (0, 0): 2, (1, 0): -1}, 16),
    ])
    def test_torus_abs_matches_phase_sum(self, terms, grid, span):
        # a zero exponent adds an exact 0 to the phase, so skipping its axis
        # leaves every cell bit-identical, and a table entry has the bits of
        # exp of the same phase. Ranges of span/7 of the cells plus 3 start
        # and end mid-row; in 2-D and 3-D they hold a partial first row,
        # whole rows and a partial last row
        f = GroupRingElement(len(next(iter(terms))), terms)
        n = grid ** f.dim
        step = span * n // 7 + 3
        bufs = (np.empty(step, complex), np.empty(step, complex), np.empty(step))
        level = fkdet._phase_tables(sorted(f.terms.items()), f.dim, grid)
        got = np.concatenate([
            fkdet._fill_abs(level, f.dim, grid, lo, min(lo + step, n), bufs).copy()
            for lo in range(0, n, step)])
        assert np.array_equal(got, oracles.direct_torus_abs(terms, f.dim, grid).ravel())

    @pytest.mark.parametrize("terms", [
        {(0,): 1, (1,): 1},
        {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2},
        # 2cos(2 pi x) + 2cos(2 pi y) vanishes on midpoints with x + y = 1/2,
        # so every level and every eps floors some cells
        {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1},
        {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1},
    ])
    def test_levels_and_eps_spread_match_phase_sum(self, terms):
        f = GroupRingElement(len(next(iter(terms))), terms)
        cfg = QuadratureConfig(grid=16 if f.dim == 3 else 64, eps=1e-9)
        r = mahler_measure(f, cfg)
        for g, v in r.levels:
            want = oracles.direct_log_mean(terms, f.dim, g, cfg.eps)
            assert abs(v - want) <= 1e-13 * max(1.0, abs(want))
        g = r.levels[-1][0]
        finals = [oracles.direct_log_mean(terms, f.dim, g, eps)
                  for eps in (1e-8, 1e-10, 1e-12)]
        assert abs(r.eps_spread - (max(finals) - min(finals))) <= 1e-13

    def test_levels_recorded(self):
        r = mahler_measure(poly({0: -1, 1: 1, 2: 1}), CFG)
        assert [g for g, _ in r.levels] == [64, 128, 256]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [float, int])
    def test_coefficients_past_the_float_range(self, kind):
        # sum |c| = 2e308 overflows a float: the terms are divided by 2^1023
        # and 1023 log 2 goes back onto every level; no root on the circle
        f = poly({0: kind(1.5e308), 1: kind(5e307)})
        r = mahler_measure(f, CFG)
        assert abs(r.value - mahler_measure_roots(f)) <= 1e-9
        assert all(abs(v - r.value) <= 1e-9 for _, v in r.levels)

    @pytest.mark.parametrize("terms,grid,eps", [
        # 1200^2 and 96^3 cells split into blocks of unequal row counts
        ({(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2}, 300, 1e-9),
        ({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}, 24, 1e-8),
        # zeros on the midpoints, so every eps floors some cells
        ({(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}, 64, 1e-10),
        # sum |c| past 2^1000: the terms are scaled by 2^-1023
        ({(0, 0): 1.5e308, (1, 0): 5e307, (1, 1): -1e307}, 40, 1e-12),
        ({(0,): 1, (1,): 1, (2,): -1}, 8, 1e-10),
        # max |c| below 1: the terms are scaled by 2^10, so the eps floor is
        # relative to the element's size
        ({(1, 0): 1e-3, (-1, 0): 1e-3, (0, 1): 1e-3, (0, -1): 1e-3}, 64, 1e-10),
        # 1-D leaves inside the one row, of 17496 and 17504 cells
        ({(-3,): 0.5, (0,): -2, (7,): 1.25}, 70000, 1e-10),
        # 48^4 cells: leaves cut rows, and terms move along inner axes
        ({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): -1,
          (1, -1, 0, 2): 0.5}, 12, 1e-10),
        # power-of-two grids, where multi-axis terms read phase tables
        ({(2, -3): 0.7, (1, 1): -1.3, (0, 0): 1}, 128, 1e-10),
        ({(3, -2, 1): 1.5, (0, 0, 0): -1, (1, 1, 1): 0.25}, 16, 1e-10),
        ({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 1, 0): 1, (0, 0, 1, 1): -1,
          (1, -1, 0, 2): 0.5}, 8, 1e-10),
        # the (1, 300) table would outgrow every level, which keeps its exp
        ({(1, 300): 1, (0, 0): 2, (1, 0): -1}, 16, 1e-10),
    ])
    # the default leaf cap and two smaller ones, one not a power of two, walk
    # different split trees with leaves of unequal lengths through one set of
    # buffers; every level still equals numpy's whole-level sum
    @pytest.mark.parametrize("cap", [fkdet._BLOCK_CELLS, 4096, 1000])
    def test_streamed_levels_bit_identical_to_whole_grid(self, monkeypatch, terms,
                                                         grid, eps, cap):
        monkeypatch.setattr(fkdet, "_BLOCK_CELLS", cap)
        f = GroupRingElement(len(next(iter(terms))), terms)
        cfg = QuadratureConfig(grid=grid, eps=eps)
        r = mahler_measure(f, cfg)
        want = oracles.direct_mahler(terms, f.dim, grid, cfg.refinements, eps)
        assert (r.value, r.error_estimate, r.converged, r.levels, r.eps_spread) == want

    @pytest.mark.parametrize("grid, per_cell", [(64, False), (60, True)])
    def test_power_of_two_levels_take_no_exp_per_cell(self, monkeypatch, grid, per_cell):
        # exp of a 2-D array is exp per cell; 1-D characters take a 1-D exp.
        # On 64, 128 and 256 the u1 u2 term reads a table of 4 g * 2 + 1
        # entries instead, while on the grids 60, 120 and 240 it cannot
        shapes = []
        exp = np.exp

        def spy(z, *args, **kwargs):
            shapes.append(np.shape(z))
            return exp(z, *args, **kwargs)

        monkeypatch.setattr(fkdet.np, "exp", spy)
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        mahler_measure(f, QuadratureConfig(grid=grid))
        assert any(len(s) == 2 and s[1] > 1 for s in shapes) == per_cell
        tables = [s for s in shapes if s in [(8 * g + 1,) for g in (64, 128, 256)]]
        assert len(tables) == (0 if per_cell else 3)

    def test_peak_memory_is_one_float_per_cell(self):
        # the finest level, 1024^2, takes 8 bytes a cell; the leaf buffers
        # and everything else fit in a fixed 8 MB
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        tracemalloc.start()
        try:
            mahler_measure(f, QuadratureConfig(grid=256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 1024 ** 2 + (8 << 20)

    @pytest.mark.parametrize("cap", [1024, 4096])
    @pytest.mark.parametrize("terms,grid", [
        ({(0,): 1, (1,): 1, (2,): -1}, 1000),
        ({(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2}, 300),
        ({(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): -1}, 24),
    ])
    def test_leaf_cap_keeps_every_field(self, monkeypatch, cap, terms, grid):
        # smaller leaves make a deeper split tree, with leaves shorter than a
        # row of 1200 cells; the tree sum still equals numpy's whole-level sum
        monkeypatch.setattr(fkdet, "_BLOCK_CELLS", cap)
        f = GroupRingElement(len(next(iter(terms))), terms)
        cfg = QuadratureConfig(grid=grid)
        r = mahler_measure(f, cfg)
        want = oracles.direct_mahler(terms, f.dim, grid, cfg.refinements, cfg.eps)
        assert (r.value, r.error_estimate, r.converged, r.levels, r.eps_spread) == want

    @pytest.mark.parametrize("cap", [fkdet._BLOCK_CELLS, 1024])
    @pytest.mark.parametrize("grid", [256, 512])
    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch, grid, cap):
        # the leaf buffers take 40 bytes a leaf cell; a level array of 8 bytes
        # a cell would take 8 MB at grid 256 and 32 MB at grid 512. A cap of
        # 1024 walks 4096 leaves of the 2048^2 level through the same buffers
        monkeypatch.setattr(fkdet, "_BLOCK_CELLS", cap)
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        tracemalloc.start()
        try:
            mahler_measure(f, QuadratureConfig(grid=grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    def test_no_memory_waits_for_the_cyclic_gc(self):
        # a reference cycle through the leaf buffers would hold them until a
        # collection
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mahler_measure(f, QuadratureConfig(grid=256))
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert after - before <= 0.1 * 2 ** 20


class TestPairwise:
    @pytest.mark.parametrize("cap", [128, 1000, 1 << 15])
    @pytest.mark.parametrize("n", [129, 1001, 65537, 100003])
    def test_tree_sum_of_leaf_sums_is_the_whole_add_reduce(self, monkeypatch, n, cap):
        # magnitudes from 1e-8 to 1e8, so any other order of additions
        # changes the low bits
        monkeypatch.setattr(fkdet, "_BLOCK_CELLS", cap)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        leaves = []

        def leaf(lo, hi):
            leaves.append((lo, hi))
            return float(np.add.reduce(x[lo:hi], initial=0.0))

        assert fkdet._pairwise(0, n, leaf) == float(np.add.reduce(x))
        # the leaves tile the range in order, none longer than the cap
        assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
        assert leaves[-1][1] == n
        assert all(0 < hi - lo <= cap for lo, hi in leaves)


class TestMahlerRoots:
    def test_unit_and_monomial(self):
        assert mahler_measure_roots(poly({0: 1, 1: 1})) == 0.0
        assert mahler_measure_roots(poly({3: 1})) == 0.0
        assert abs(mahler_measure_roots(poly({0: 1, 1: 2})) - math.log(2)) < 1e-12

    def test_discrete_laplacian_measure_zero(self):
        assert abs(mahler_measure_roots(poly({-1: 1, 0: 2, 1: 1}))) < 1e-9

    def test_two_dim_rejected(self):
        with pytest.raises(ValueError):
            mahler_measure_roots(GroupRingElement(2, {(0, 0): 1, (1, 1): 1}))

    def test_degree_cap(self, monkeypatch):
        # the span from the lowest to the highest term is the degree
        monkeypatch.setattr(fkdet, "_ROOTS_MAX_DEGREE", 4)
        assert abs(mahler_measure_roots(poly({-2: 1, 2: 1}))) < 1e-9
        with pytest.raises(CapacityError, match="degree 5 exceeds the 4 cap"):
            mahler_measure_roots(poly({-2: 1, 3: 1}))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_reciprocal_when_the_companion_matrix_overflows(self):
        # np.roots would divide by the leading 1e-300; 1e300 u^2 + 1e-300 has
        # the same measure and its roots, of modulus 1e-300, lie inside
        assert mahler_measure_roots(poly({0: 1e300, 2: 1e-300})) == math.log(1e300)
        assert mahler_measure_roots(poly({0: 1e-300, 2: 1e300})) == math.log(1e300)
        # scaled by 2^-996 both ends underflow to 0.0 and are trimmed; the
        # roots near -1e600 and -1e-600 give log 1e300 in the limit
        both = poly({0: 1e-300, 1: 1e300, 2: 1e-300})
        assert mahler_measure_roots(both) == pytest.approx(math.log(1e300), rel=1e-12)
        # scaled by 2^-1, the 5e-324 ends round to 0.0: the measure is log 2
        ends = poly({0: 5e-324, 2: 2, 3: 5e-324})
        assert mahler_measure_roots(ends) == pytest.approx(math.log(2), rel=1e-12)
        # subnormal ends that stay nonzero overflow the companion matrix
        with pytest.raises(ArithmeticError, match="both orientations"):
            mahler_measure_roots(poly({0: 1e-310, 1: 1, 2: 1e-310}))

    def test_repeated_roots_on_the_circle(self):
        # np.roots scatters a k-fold root by about eps^(1/k)
        triple = poly({0: 1, 1: -2, 3: 2, 4: -1})  # (1-u)^3 (1+u)
        sixfold = poly({k: (-1) ** k * math.comb(6, k) for k in range(7)})
        assert abs(mahler_measure_roots(triple)) < 1e-12
        assert abs(mahler_measure_roots(sixfold)) < 1e-12
        squared = poly({0: 1, 1: -3, 2: 3}).convolve(poly({0: 1, 1: -3, 2: 3}))
        assert abs(mahler_measure_roots(squared) - 2 * math.log(3)) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=4),
           st.lists(st.integers(-3, 3), min_size=2, max_size=4))
    @example(cs=[1, -1], ds=[1, -1, -1, 1])
    def test_multiplicative_on_products(self, cs, ds):
        f = poly({k: c for k, c in enumerate(cs)})
        g = poly({k: c for k, c in enumerate(ds)})
        if f.is_zero() or g.is_zero():
            return
        lhs = mahler_measure_roots(f.convolve(g))
        rhs = mahler_measure_roots(f) + mahler_measure_roots(g)
        assert abs(lhs - rhs) < 1e-7


class TestFiniteSections:
    def test_point_mass_constant(self):
        rows = fk_finite_sections(GroupRingElement(1, {(0,): 2.0}),
                                  WindowSchedule.boxes(1, [2, 4]))
        for r in rows:
            assert abs(r.value - math.log(2)) < 1e-12

    def test_one_plus_u_closed_form_from_above(self):
        rows = fk_finite_sections(poly({0: 1, 1: 1}),
                                  WindowSchedule.boxes(1, [4, 8, 16, 32]))
        values = [r.value for r in rows]
        for r in rows:
            assert abs(r.value - math.log(r.size + 1) / (2 * r.size)) < 1e-12
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_golden_sections_converge_to_measure(self):
        f = poly({0: -1, 1: 1, 2: 1})
        rows = fk_finite_sections(f, WindowSchedule.boxes(1, [8, 16, 32]))
        for r in rows:
            assert r.value >= GOLDEN - 1e-9
        assert abs(rows[-1].value - GOLDEN) < 0.05

    def test_shift_leaves_sections_unchanged(self):
        f = poly({0: -1, 1: 1, 2: 1})
        g = f.translate((5,))
        sched = WindowSchedule.boxes(1, [4, 8])
        assert fk_finite_sections(f, sched) == fk_finite_sections(g, sched)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            fk_finite_sections(GroupRingElement(1, {}),
                               WindowSchedule.boxes(1, [2]))


class TestPerVsDet:
    def test_one_plus_u_gap_closes(self):
        for n in (4, 8, 16):
            iper, section, ok = per_vs_det(poly({0: 1, 1: 1}), n)
            assert ok
            assert iper >= section - 1e-12

    def test_laplacian_strict_gap(self):
        f = poly({-1: 1, 0: 2, 1: 1})
        assert abs(mahler_measure_roots(f)) < 1e-9
        iper, section, ok = per_vs_det(f, 8)
        assert ok
        assert iper - section > 0.3

    def test_golden_gap_small(self):
        iper, section, ok = per_vs_det(poly({0: -1, 1: 1, 2: 1}), 16)
        assert ok
        assert 0 <= iper - section < 0.25

    @settings(deadline=None, max_examples=25)
    @given(st.dictionaries(st.integers(0, 2), st.integers(-2, 2),
                           min_size=1, max_size=3),
           st.integers(3, 6))
    def test_finite_inequality_random(self, coeffs, n):
        f = poly(coeffs)
        if f.is_zero():
            return
        assert per_vs_det(f, n)[2]


# per family, at its defaults and at one override set: the parameters, f's
# terms in insertion order, and each signed representative's terms
PINNED = [
    ("trinomial-Z", {"a": 1.0, "b": 1.0, "c": 1.0},
     [((2,), 1.0), ((1,), 1.0), ((0,), 1.0)],
     [{(2,): 1.0, (1,): 1.0, (0,): -1.0}]),
    ("trinomial-Z", {"a": 2, "b": 2.5, "c": 3},
     [((2,), 2), ((1,), 2.5), ((0,), 3)],
     [{(2,): 2, (1,): 2.5, (0,): -3}]),
    ("three-point-Z", {"a": 1.0, "b": 1.0, "c": 1.0, "K": 3},
     [((3,), 1.0), ((2,), 1.0), ((0,), 1.0)],
     [{(3,): 1.0, (2,): 1.0, (0,): -1.0}, {(3,): 1.0, (2,): 1.0, (0,): 1.0}]),
    ("three-point-Z", {"a": 2, "b": 2.5, "c": 3, "K": 5.0},
     [((5,), 2), ((4,), 2.5), ((0,), 3)],
     [{(5,): 2, (4,): 2.5, (0,): -3}, {(5,): 2, (4,): 2.5, (0,): 3}]),
    ("four-point-Z", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0, "K": 3},
     [((3,), 1.0), ((2,), 1.0), ((1,), 1.0), ((0,), 1.0)],
     [{(3,): 1.0, (2,): 1.0, (1,): 1.0, (0,): -1.0},
      {(3,): 1.0, (2,): 1.0, (1,): -1.0, (0,): 1.0}]),
    ("four-point-Z", {"a": 2, "b": 2.5, "c": 3, "d": 0.5, "K": 6},
     [((6,), 2), ((5,), 2.5), ((1,), 3), ((0,), 0.5)],
     [{(6,): 2, (5,): 2.5, (1,): 3, (0,): -0.5},
      {(6,): 2, (5,): 2.5, (1,): -3, (0,): 0.5}]),
    ("affine-Z2", {"a": 1.0, "b": 1.0, "c": 1.0},
     [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0)],
     [{(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0}]),
    ("affine-Z2", {"a": 2, "b": 2.5, "c": 3},
     [((0, 0), 2), ((1, 0), 2.5), ((0, 1), 3)],
     [{(0, 0): 2, (1, 0): 2.5, (0, 1): 3}]),
    ("quad-Z2", {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0},
     [((0, 0), 1.0), ((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 1.0)],
     [{(0, 0): 1.0, (1, 0): 1.0, (0, 1): 1.0, (1, 1): -1.0},
      {(0, 0): 1.0, (1, 0): -1.0, (0, 1): 1.0, (1, 1): 1.0}]),
    ("quad-Z2", {"a": 2, "b": 2.5, "c": 3, "d": 0.5},
     [((0, 0), 2), ((1, 0), 2.5), ((0, 1), 3), ((1, 1), 0.5)],
     [{(0, 0): 2, (1, 0): 2.5, (0, 1): 3, (1, 1): -0.5},
      {(0, 0): 2, (1, 0): -2.5, (0, 1): 3, (1, 1): 0.5}]),
    ("dimer", {"a": 1.0, "b": 1.0},
     [((1, 0), 1.0), ((-1, 0), 1.0), ((0, 1), 1.0), ((0, -1), 1.0)],
     [{(1, 0): -1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0}]),
    ("dimer", {"a": 2, "b": 2.5},
     [((1, 0), 2), ((-1, 0), 2), ((0, 1), 2.5), ((0, -1), 2.5)],
     [{(1, 0): -2, (-1, 0): 2, (0, 1): 2.5, (0, -1): 2.5}]),
]
# K's least value, per family that has K
K_FLOORS = {"three-point-Z": 2, "four-point-Z": 3}


def typed(terms) -> list:
    """(exponent, coefficient, type) per term, in the given order."""
    return [(p, c, type(c)) for p, c in terms]


class TestFamilies:
    @pytest.mark.parametrize("family,params,perm,reps", PINNED)
    def test_pinned_terms_and_representatives(self, family, params, perm, reps):
        inst = family_instance(family, params)
        assert inst.params == tuple((k, float(v)) for k, v in params.items())
        assert inst.dim == len(perm[0][0])
        assert typed(inst.permanent_element.terms.items()) == typed(perm)
        # a representative's own term order is not part of its value
        assert [sorted(typed(g.terms.items())) for g in inst.det_elements] == \
            [sorted(typed(r.items())) for r in reps]
        for g in inst.det_elements:
            assert g.abs() == inst.permanent_element

    @pytest.mark.parametrize("family", sorted({fam for fam, *_ in PINNED}))
    def test_K_floor_message(self, family):
        params = next(p for fam, p, *_ in PINNED if fam == family)
        if family not in K_FLOORS:
            with pytest.raises(ValueError, match="needs parameters"):
                family_instance(family, {**params, "K": 3})
            return
        floor = K_FLOORS[family]
        family_instance(family, {**params, "K": floor})
        for K in (floor - 1, floor + 0.5):
            with pytest.raises(ValueError) as e:
                family_instance(family, {**params, "K": K})
            assert str(e.value) == f"K must be an integer >= {floor}"

    def test_pinned_cover_the_table(self):
        assert {fam for fam, *_ in PINNED} == set(fkdet.FAMILIES)
        assert {fam for fam, row in fkdet.FAMILIES.items()
                if row.K_floor is not None} == set(K_FLOORS)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            family_instance("pentagon", {"a": 1})

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            family_instance("trinomial-Z", {"a": 1, "b": 1})
        with pytest.raises(ValueError):
            family_instance("trinomial-Z", {"a": 1, "b": 1, "c": -1})
        with pytest.raises(ValueError):
            family_instance("three-point-Z", {"a": 1, "b": 1, "c": 1, "K": 1})
        with pytest.raises(ValueError):
            family_instance("four-point-Z", {"a": 1, "b": 1, "c": 1, "d": 1, "K": 2})
        with pytest.raises(ValueError):
            family_instance("three-point-Z", {"a": 1, "b": 1, "c": 1, "K": 2.5})

    @pytest.mark.parametrize("name, value", [("K", math.inf), ("K", math.nan),
                                             ("K", -math.inf), ("a", math.inf),
                                             ("a", math.nan)])
    def test_non_finite_parameter_rejected_with_the_cli_message(self, name, value):
        params = {"a": 1, "b": 1, "c": 1, "K": 3, name: value}
        with pytest.raises(ValueError, match=f"^parameter {name} must be finite$"):
            family_instance("three-point-Z", params)

    def test_three_point_smallest_span_matches_trinomial(self):
        inst = family_instance("three-point-Z", {"a": 1, "b": 1, "c": 1, "K": 2})
        tri = family_instance("trinomial-Z", {"a": 1, "b": 1, "c": 1})
        assert inst.permanent_element.terms == tri.permanent_element.terms
        assert inst.det_elements[0].terms == tri.det_elements[0].terms

    def test_trinomial_equality_of_sides(self):
        r = evaluate_family("trinomial-Z", {"a": 1, "b": 1, "c": 1})
        assert r.per_label == "transfer-exact"
        assert abs(r.per_low - GOLDEN) < 1e-9
        assert abs(r.det_value - GOLDEN) < 1e-6
        assert abs(r.per_low - r.det_value) <= max(1e-6, 2 * r.det_error)

    def test_three_point_permanent_equals_max_det(self):
        # which representative wins varies with the parameters; only the max
        # identity is asserted
        r = evaluate_family("three-point-Z", {"a": 1, "b": 1, "c": 1, "K": 3})
        assert abs(r.per_low - r.det_value) < 1e-6
        values = [m.value for m in r.det_results]
        assert r.det_value == max(values)

    def test_four_point_permanent_equals_max_det(self):
        r = evaluate_family("four-point-Z", {"a": 1, "b": 1, "c": 1, "d": 1, "K": 3})
        assert abs(r.per_low - r.det_value) < 1e-6

    def test_quad_representatives_agree(self):
        inst = family_instance("quad-Z2", {"a": 1, "b": 2, "c": 1, "d": 0.5})
        r1 = mahler_measure(inst.det_elements[0], CFG)
        r2 = mahler_measure(inst.det_elements[1], CFG)
        assert abs(r1.value - r2.value) < 1e-12

    def test_dimer_value_matches_slice_oracle(self):
        oracle, _ = si.quad(
            lambda t: math.log(abs(math.sin(2 * math.pi * t))
                               + math.sqrt(math.sin(2 * math.pi * t) ** 2 + 1)),
            0, 1, limit=400)
        r = evaluate_family("dimer", {"a": 1, "b": 1})
        assert abs(r.det_value - oracle) < 1e-4
        assert abs(r.det_value - oracle) <= 10 * max(r.det_error, 1e-8)
        # the closed form 2G/pi, G Catalan's constant; grid 64 is off by 2.2e-8
        exact = float(2 * mpmath.catalan / mpmath.pi)
        assert abs(r.det_value - exact) < 1e-7
        assert r.det_error >= abs(r.det_value - exact)

    def test_two_dim_brackets_contain_det(self):
        for fam, params in (("dimer", {"a": 1, "b": 1}),
                            ("quad-Z2", {"a": 1, "b": 1, "c": 1, "d": 1}),
                            ("affine-Z2", {"a": 1, "b": 1, "c": 1})):
            r = evaluate_family(fam, params)
            assert r.per_label == "certified-bracket"
            assert r.per_low <= r.det_value <= r.per_high
            assert r.torus_max is not None


class TestSignProbe:
    def test_quad_family_example_constant_on_all_targets(self):
        f = GroupRingElement(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1, (1, 1): 1})
        signs = oracles.target_signs(f, Window.box([0, 0], [3, 3]))
        assert len(signs) == 792
        assert sum(not s for s in signs) == 48
        assert all(len(set(s)) <= 1 for s in signs)

    def test_single_site_window_trivially_constant(self):
        signs = oracles.target_signs(poly({0: 1, 1: 1}), Window.of([(0,)]))
        assert signs and all(len(s) == 1 for s in signs)

    def test_plain_interval_weight_shows_mixed_signs(self):
        signs = oracles.target_signs(poly({0: 1, 1: 1, 2: 1}), Window.box([0], [3]))
        assert len(signs) == 6
        mixed = [s for s in signs if len(set(s)) > 1]
        assert len(mixed) == 3
