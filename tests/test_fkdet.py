"""Tests for Mahler measure quadrature, finite determinant sections, the
finite inequality det <= iper^2, example families, and the constant-sign
facts of signed pattern terms."""

import concurrent.futures
import gc
import math
import tracemalloc

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
    fk_finite_sections,
    mahler_measure,
    mahler_measure_roots,
)
from latperm.groupring import CapacityError, GroupRingElement, Window
from latperm.permanent import window_permanent

GOLDEN = math.log((1 + math.sqrt(5)) / 2)
CFG = QuadratureConfig()


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

    def test_threads_bit_identical(self):
        f = GroupRingElement(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -1})
        assert mahler_measure(f, CFG).value == mahler_measure(f, CFG, threads=3).value

    @pytest.mark.parametrize("cores, pools", [(4, [4]), (None, [])])
    def test_thread_pool_capped_at_cores(self, monkeypatch, cores, pools):
        # a fake pool records its size and runs the chunks serially
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(fkdet.os, "cpu_count", lambda: cores)
        # 128^2 cells make 16 leaves of 1024, more than the cores
        monkeypatch.setattr(fkdet, "_BLOCK_CELLS", 1024)
        f = GroupRingElement(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): -1})
        eps_levels = sorted(fkdet._EPS_SWEEP)
        got = fkdet._level_sums(f, 128, eps_levels, threads=64)
        assert started == pools
        assert np.array_equal(got, fkdet._level_sums(f, 128, eps_levels))

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
    ])
    def test_torus_abs_matches_phase_sum(self, terms, grid, span):
        # a zero exponent adds an exact 0 to the phase, so skipping its axis
        # leaves every cell bit-identical. Ranges of span/7 of the cells plus
        # 3 start and end mid-row; in 2-D and 3-D they hold a partial first
        # row, whole rows and a partial last row
        f = GroupRingElement(len(next(iter(terms))), terms)
        n = grid ** f.dim
        step = span * n // 7 + 3
        bufs = (np.empty(step, complex), np.empty(step, complex), np.empty(step))
        got = np.concatenate([
            fkdet._fill_abs(sorted(f.terms.items()), f.dim, grid, lo,
                            min(lo + step, n), bufs).copy()
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

    @pytest.mark.parametrize("threads", [1, 2, 3])
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
    ])
    def test_streamed_levels_bit_identical_to_whole_grid(self, monkeypatch, terms,
                                                         grid, eps, threads):
        # more cores than threads, so threads=3 runs three workers anywhere
        monkeypatch.setattr(fkdet.os, "cpu_count", lambda: 8)
        f = GroupRingElement(len(next(iter(terms))), terms)
        cfg = QuadratureConfig(grid=grid, eps=eps)
        r = mahler_measure(f, cfg, threads=threads)
        want = oracles.direct_mahler(terms, f.dim, grid, cfg.refinements, eps)
        assert (r.value, r.error_estimate, r.converged, r.levels, r.eps_spread) == want

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_is_one_float_per_cell(self, monkeypatch, threads):
        # the finest level, 1024^2, takes 8 bytes a cell; the blocks in flight
        # and everything else fit in a fixed 8 MB
        monkeypatch.setattr(fkdet.os, "cpu_count", lambda: 2)
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        tracemalloc.start()
        try:
            mahler_measure(f, QuadratureConfig(grid=256), threads=threads)
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
        monkeypatch.setattr(fkdet.os, "cpu_count", lambda: 2)
        f = GroupRingElement(len(next(iter(terms))), terms)
        cfg = QuadratureConfig(grid=grid)
        r = mahler_measure(f, cfg, threads=2)
        want = oracles.direct_mahler(terms, f.dim, grid, cfg.refinements, cfg.eps)
        assert (r.value, r.error_estimate, r.converged, r.levels, r.eps_spread) == want

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("grid", [256, 512])
    def test_peak_memory_does_not_grow_with_the_grid(self, monkeypatch, grid, threads):
        # each worker holds 40 bytes a leaf cell; a level array of 8 bytes a
        # cell would take 8 MB at grid 256 and 32 MB at grid 512
        monkeypatch.setattr(fkdet.os, "cpu_count", lambda: 2)
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        tracemalloc.start()
        try:
            mahler_measure(f, QuadratureConfig(grid=grid), threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_memory_waits_for_the_cyclic_gc(self, monkeypatch, threads):
        # a reference cycle through the leaf buffers would hold them until a
        # collection
        monkeypatch.setattr(fkdet.os, "cpu_count", lambda: 2)
        f = GroupRingElement(2, {(0, 0): 2, (1, 0): 3, (0, 1): 1, (1, 1): -2})
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mahler_measure(f, QuadratureConfig(grid=256), threads=threads)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert after - before <= 0.1 * 2 ** 20


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


class TestFamilies:
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
