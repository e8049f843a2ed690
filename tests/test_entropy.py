"""Tests for entropy/pressure estimation: window schedules, transfer
matrices, torus estimates, closed-form bounds, and the combined report."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latperm.entropy as entropy
from latperm.cli import _dump, main
from latperm.entropy import (
    EstimateReport,
    EstimateRow,
    WindowSchedule,
    default_tori,
    entropy_upper_bound,
    estimate_report,
    pressure_lower_bound,
    torus_estimates,
    transfer_matrix,
    transfer_pressure,
    upper_estimates,
)
from latperm.fkdet import family_instance, mahler_measure_roots
from latperm.groupring import CapacityError, GroupRingElement, TorusQuotient, Window
import latperm.permanent as permanent
from latperm.permanent import torus_permanent, window_permanent

GOLDEN = math.log((1 + math.sqrt(5)) / 2)


def indicator(*offsets):
    return GroupRingElement.indicator(Window.of([(a,) for a in offsets]))


def _sector_states(K):
    """The states 0..2^K-1 of each popcount 0..K, in increasing order."""
    states = np.arange(1 << K)
    pop = np.array([bin(s).count("1") for s in states])
    return [states[pop == k] for k in range(K + 1)]


def _dense(sectors):
    """The whole 2^K-state matrix with each sector's dense block on the
    states of its popcount and zeros between sectors; it equals a dense
    oracle exactly when every sector equals the oracle restricted to its
    states and the oracle has no entry between sectors."""
    K = len(sectors) - 1
    D = np.zeros((1 << K, 1 << K))
    for idx, B in zip(_sector_states(K), sectors):
        D[np.ix_(idx, idx)] = B.dense()
    return D


_TRINOMIALS = [{0: 1, K - 1: 1, K: 1} for K in range(2, 11)]


def _seeded_weights(kind, count=20):
    """Seeded weights of span at most 10: 0, the span and up to three
    offsets between, with integer weights 1..5 or float weights 0.1..6."""
    rng = random.Random(11 if kind is int else 12)
    out = []
    for _ in range(count):
        span = rng.randint(1, 10)
        offsets = {0, span} | {rng.randint(0, span) for _ in range(rng.randint(0, 3))}
        out.append({a: rng.randint(1, 5) if kind is int else rng.uniform(0.1, 6.0)
                    for a in sorted(offsets)})
    return out


class TestWindowSchedule:
    def test_boxes_one_dimensional(self):
        sched = WindowSchedule.boxes(1, [2, 4, 6])
        assert sched.labels == ("box2", "box4", "box6")
        assert [len(w) for w in sched.windows] == [2, 4, 6]

    def test_boxes_two_dimensional_labels(self):
        sched = WindowSchedule.boxes(2, [2, 3])
        assert sched.labels == ("2x2", "3x3")
        assert [len(w) for w in sched.windows] == [4, 9]

    def test_rejects_nonincreasing_cardinality(self):
        w2 = Window.box([0], [2])
        w3 = Window.box([0], [3])
        with pytest.raises(ValueError):
            WindowSchedule((w3, w2), ("a", "b"))
        with pytest.raises(ValueError):
            WindowSchedule((w2, w2), ("a", "b"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            WindowSchedule((Window.box([0], [2]),), ("a", "b"))


class TestTransferMatrix:
    def test_two_point_support_is_identity(self):
        T = transfer_matrix(indicator(0, 1))
        assert len(T) == 2  # span 1: popcounts 0 and 1
        assert np.array_equal(_dense(T), np.eye(2))

    def test_point_mass_single_state(self):
        T = transfer_matrix(GroupRingElement(1, {(3,): 2.0}))
        assert len(T) == 1  # span 0
        assert _dense(T).tolist() == [[2.0]]

    def test_indicator_matrix_is_zero_one(self):
        T = transfer_matrix(indicator(0, 1, 2, 3))
        D = _dense(T)
        assert set(np.unique(D)) <= {0.0, 1.0}

    def test_translation_gives_identical_matrix(self):
        f = indicator(0, 1, 2)
        g = f.translate((7,))
        assert np.array_equal(_dense(transfer_matrix(f)),
                              _dense(transfer_matrix(g)))

    def test_rejects_signed_and_zero_and_2d(self):
        with pytest.raises(ValueError):
            transfer_matrix(GroupRingElement(1, {(0,): 1, (1,): -1}))
        with pytest.raises(ValueError):
            transfer_matrix(GroupRingElement(1, {}))
        with pytest.raises(ValueError):
            transfer_matrix(GroupRingElement.indicator(Window.box([0, 0], [2, 2])))

    def test_large_span_raises_capacity(self):
        f = GroupRingElement(1, {(0,): 1, (25,): 1})
        with pytest.raises(CapacityError):
            transfer_matrix(f)


class TestTransferSectors:
    def test_vectorized_build_matches_state_loop(self):
        for weights in ({0: 1}, {0: 2, 1: 3}, {0: 1, 2: 1, 5: 1},
                        {0: 2, 1: 1, 3: 3, 4: 1}, {0: 1, 6: 2, 7: 1}):
            f = GroupRingElement(1, {(a + 3,): c for a, c in weights.items()})
            T = transfer_matrix(f)
            assert all(isinstance(B, entropy.Block) for B in T)
            K = max(weights)
            assert sum(B.size for B in T) == 1 << K
            D = oracles.claimed_positions_transfer(weights)
            for idx, B in zip(_sector_states(K), T):
                assert np.array_equal(B.dense(), D[np.ix_(idx, idx)])
            assert np.array_equal(_dense(T), D)

    def test_sector_sizes_are_binomial(self):
        sectors = transfer_matrix(indicator(0, 2, 3, 7))
        assert [B.size for B in sectors] == [math.comb(7, k) for k in range(8)]
        # one entry per admissible (state, displacement) pair, as in the oracle
        D = oracles.claimed_positions_transfer({0: 1, 2: 1, 3: 1, 7: 1})
        assert sum(len(B.weight) for B in sectors) == np.count_nonzero(D)
        assert sum(B.weight.sum() for B in sectors) == D.sum()
        # each entry stays inside its sector's rank range
        for B in sectors:
            assert B.src.max() < B.size and B.dst.max() < B.size

    def test_entry_between_sectors_raises(self, monkeypatch):
        # flipping bit 1 of a key flips bit 0 of its destination state, so
        # the entry leaves its source's popcount sector
        candidates = entropy._candidates

        def leaky(*args):
            kk, vv = candidates(*args)
            kk[0] ^= 2
            return kk, vv

        monkeypatch.setattr(entropy, "_candidates", leaky)
        with pytest.raises(ArithmeticError, match="between popcount sectors"):
            transfer_matrix(indicator(0, 1, 2))

    def test_block_product_matches_dense(self):
        weights = {0: 2, 1: 0.5, 4: 3}
        T = transfer_matrix(GroupRingElement(1, {(a,): c for a, c in weights.items()}))
        D = oracles.claimed_positions_transfer(weights)
        x = np.linspace(0.5, 2.0, 1 << 4)
        for idx, B in zip(_sector_states(4), T):
            assert np.allclose(B @ x[idx], D[np.ix_(idx, idx)] @ x[idx],
                               rtol=1e-15, atol=0)
            y = np.linspace(1.0, 3.0, B.size)
            assert np.allclose(B @ y, B.dense() @ y, rtol=1e-15, atol=0)

    def test_non_convergence_raises(self):
        T = transfer_matrix(indicator(0, 10, 11))
        assert sum(B.size for B in T) > 1 << 10
        with pytest.raises(ArithmeticError, match="converge"):
            entropy._spectral_radius(T, max_iter=3)

    def test_dense_disagreement_raises(self, monkeypatch):
        # with no bracket to certify it, a converged value meets the dense check
        T = transfer_matrix(indicator(0, 1, 2, 4))

        def converge_to_123(solve, steps, tol):
            solve.lam, solve.converged = 123.0, True

        def no_bracket(solve):
            solve.bracket = None

        monkeypatch.setattr(entropy._SectorSolve, "run", converge_to_123)
        monkeypatch.setattr(entropy._SectorSolve, "take_bracket", no_bracket)
        with pytest.raises(ArithmeticError, match="disagree"):
            entropy._spectral_radius(T)

    def test_radius_above_pruning_bracket_raises(self, monkeypatch):
        # a bracket of [1, 1] claims every sector has radius 0, so the first
        # sector's converged value lies above it
        T = transfer_matrix(indicator(0, 1, 2, 4))

        def null_bracket(solve):
            solve.bracket = (1.0, 1.0)

        monkeypatch.setattr(entropy._SectorSolve, "take_bracket", null_bracket)
        with pytest.raises(ArithmeticError, match="outside its bracket"):
            entropy._spectral_radius(T)

    @pytest.mark.parametrize("weights", [
        {0: 1, 7: 1, 8: 1},
        {0: 1, 9: 1, 10: 1},
        {0: 2, 1: 0.5, 4: 3},
        {0: 1, 3: 2, 6: 1, 9: 3, 10: 1},
    ])
    def test_pruned_sectors_lie_under_their_bracket(self, weights):
        T = transfer_matrix(GroupRingElement(1, {(a,): c for a, c in weights.items()}))
        assert sum(B.size for B in T) <= 1 << 10
        solves = entropy._solve_sectors(T, 1e-13, 500000)
        pruned = [s for s in solves if s.pruned]
        assert pruned
        for s in pruned:
            dense = oracles.dense_spectral_radius(s.B.dense())
            lo, hi = s.bracket
            assert 1 + dense <= hi
            assert not s.converged and s.x.min() > 0

    def test_underflowing_iterate_is_never_pruned(self):
        # the 6-state sector has radius 1e200, far below the top sector's
        # 1e300, but its iterate underflows, so no bracket can prune it
        T = transfer_matrix(GroupRingElement(1, {(0,): 1, (3,): 1e300, (4,): 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solves = entropy._solve_sectors(T, 1e-13, 2000)
        tiny = np.finfo(float).tiny
        low = [s for s in solves if s.x.min() < tiny]
        assert [s.B.size for s in low] == [6]
        assert low[0].bracket is None and not low[0].pruned
        assert low[0].steps == 2000 and low[0].value < 1e201
        assert all(s.x.min() >= tiny for s in solves if s.pruned)
        assert max(s.value for s in solves if s.value is not None) == 1e300

    @pytest.mark.parametrize("weights", _TRINOMIALS + _seeded_weights(int)
                             + _seeded_weights(float))
    def test_dense_radius_lies_in_every_bracket(self, weights):
        # the dense oracle on every sector: equal to each converged value,
        # inside each certified bracket and under each pruned sector's hi,
        # both widened by the margin
        T = transfer_matrix(GroupRingElement(1, {(a,): c for a, c in weights.items()}))
        assert sum(B.size for B in T) <= 1 << 10
        margin = entropy._BOUND_MARGIN
        for s in entropy._solve_sectors(T, 1e-13, 500000):
            dense = oracles.dense_spectral_radius(s.B.dense())
            assert s.converged or s.pruned
            if s.converged:
                assert abs(s.value - dense) <= 1e-9 * max(1.0, dense)
            if s.certified:
                lo, hi = s.bracket
                assert lo * (1 - margin) <= 1 + dense <= hi * (1 + margin)
                assert hi - lo <= 1e-9 * (1 + s.lam)
            if s.pruned:
                assert s.value is None and 1 + dense <= s.bracket[1] * (1 + margin)

    def test_certified_and_pruned_sectors_both_occur(self):
        solves = [s for w in _seeded_weights(int) + _seeded_weights(float)
                  for s in entropy._solve_sectors(
                      transfer_matrix(GroupRingElement(1, {(a,): c for a, c in w.items()})),
                      1e-13, 500000)]
        assert sum(s.certified for s in solves) >= 20
        assert sum(s.pruned for s in solves) >= 20


    @pytest.mark.parametrize("params", [
        {"a": 1, "b": 1, "c": 1, "K": 16},
        # two sectors with close radii: whole-matrix power iteration on
        # 1 + 3u^10 + 2u^11 ran 500000 steps without converging
        {"a": 2, "b": 3, "c": 1, "K": 11},
    ])
    def test_three_point_matches_root_measure(self, params):
        inst = family_instance("three-point-Z", params)
        expect = max(mahler_measure_roots(g) for g in inst.det_elements)
        assert abs(transfer_pressure(inst.permanent_element) - expect) <= 1e-10

    def test_runs_without_scipy(self):
        # a None entry in sys.modules makes every scipy import fail
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import latperm.cli\n"
            "from latperm import GroupRingElement, transfer_pressure\n"
            "p = transfer_pressure(GroupRingElement(1, {(0,): 1, (13,): 1, (14,): 1}))\n"
            "assert 0.3 < p < 0.4, p\n"
            "sys.exit(latperm.cli.main(['verify']))\n"
        )
        src = str(Path(entropy.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "FAIL" not in proc.stdout

    def test_report_builds_transfer_matrix_once(self, monkeypatch):
        built = []

        def counting(f):
            built.append(f)
            return transfer_matrix(f)

        monkeypatch.setattr(entropy, "transfer_matrix", counting)
        rep = estimate_report(indicator(0, 1, 3), WindowSchedule.boxes(1, [4]),
                              tori=[])
        assert len(built) == 1
        row = next(r for r in rep.rows if r.kind == "transfer")
        assert row.size == 8


class TestDenseFallback:
    """Dense eigenvalues run only on sectors that no bracket certifies."""

    @pytest.fixture
    def eigvals_calls(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(M):
            calls.append(M.shape)
            return eigvals(M)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        return calls

    @pytest.mark.parametrize("weights", _TRINOMIALS)
    def test_trinomials_make_no_dense_call(self, eigvals_calls, weights):
        transfer_pressure(GroupRingElement(1, {(a,): c for a, c in weights.items()}))
        assert eigvals_calls == []

    def test_compare_three_point_makes_no_dense_call(self, eigvals_calls, capsys):
        assert main(["compare", "three-point-Z", "--params", "K=9"]) == 0
        capsys.readouterr()
        assert eigvals_calls == []

    def test_wide_bracket_takes_the_dense_check(self, eigvals_calls):
        # the top sector's Perron vector has near-zero entries, so the
        # bracket of its converged iterate is far too wide to certify it
        f = GroupRingElement(1, {(0,): 1, (3,): 4, (6,): 3})
        T = transfer_matrix(f)
        solves = entropy._solve_sectors(T, 1e-13, 500000)
        top = max(solves, key=lambda s: s.value or 0.0)
        assert top.converged and not top.certified
        lo, hi = top.bracket
        assert hi - lo > 0.1
        assert (top.B.size, top.B.size) in eigvals_calls
        dense = oracles.dense_spectral_radius(_dense(T))
        assert abs(top.value - dense) <= 1e-9 * dense
        assert abs(transfer_pressure(f) - math.log(dense)) <= 1e-9


@settings(deadline=None, max_examples=40)
@given(st.dictionaries(st.integers(0, 8), st.integers(1, 4), min_size=1,
                       max_size=5))
def test_sector_radius_matches_dense_spectrum(weights):
    f = GroupRingElement(1, {(a,): c for a, c in weights.items()})
    T = transfer_matrix(f)
    lo = min(weights)
    D = oracles.claimed_positions_transfer({a - lo: c for a, c in weights.items()})
    pop = np.array([bin(s).count("1") for s in range(len(D))])
    rows, cols = np.nonzero(D)
    assert np.array_equal(pop[rows], pop[cols])
    assert np.array_equal(_dense(T), D)
    rho = oracles.dense_spectral_radius(D)
    assert abs(entropy._spectral_radius(T) - rho) <= 1e-9 * max(1.0, rho)


_WEIGHT = st.one_of(st.integers(1, 4), st.floats(0.25, 4.0))


@st.composite
def _spanned_weights(draw):
    """Weights on 0, the span (1..12) and up to four offsets between."""
    span = draw(st.integers(1, 12))
    inner = draw(st.sets(st.integers(1, 11), max_size=4))
    return {a: draw(_WEIGHT) for a in {0, span} | {a for a in inner if a < span}}


@settings(deadline=None, max_examples=40)
@given(_spanned_weights())
@example({0: 1, 11: 1, 12: 1})
@example({0: 1, 10: 3, 11: 2})
@example({0: 0.5, 1: 3.25, 5: 1, 12: 2})
def test_pruned_radius_is_bit_identical_to_unpruned(weights):
    T = transfer_matrix(GroupRingElement(1, {(a,): c for a, c in weights.items()}))
    got = entropy._spectral_radius(T)
    assert got.hex() == oracles.unpruned_spectral_radius(T).hex()


class TestTransferPressure:
    def test_single_displacement_is_zero(self):
        assert transfer_pressure(indicator(0)) == 0.0

    def test_two_displacements_is_zero(self):
        assert transfer_pressure(indicator(0, 1)) == 0.0
        assert abs(transfer_pressure(indicator(0, 3))) < 1e-12

    def test_interval_of_three_gives_golden_ratio(self):
        assert abs(transfer_pressure(indicator(0, 1, 2)) - GOLDEN) < 1e-12

    def test_point_mass_gives_log_weight(self):
        f = GroupRingElement(1, {(5,): 2.0})
        assert abs(transfer_pressure(f) - math.log(2)) < 1e-12

    def test_translation_invariance_exact(self):
        f = indicator(-1, 0, 1)
        assert transfer_pressure(f) == transfer_pressure(f.translate((4,)))

    def test_scaling_adds_log_factor(self):
        f = indicator(0, 1, 2)
        g = f.scale(3)
        assert abs(transfer_pressure(g) - transfer_pressure(f) - math.log(3)) < 1e-12

    def test_adjoint_has_equal_pressure(self):
        f = GroupRingElement(1, {(0,): 1, (1,): 2, (3,): 1})
        assert abs(transfer_pressure(f) - transfer_pressure(f.adjoint())) < 1e-9

    def test_convolution_superadditive(self):
        f = GroupRingElement(1, {(0,): 1, (1,): 1})
        g = GroupRingElement(1, {(0,): 2, (2,): 1})
        lhs = transfer_pressure(f.convolve(g))
        assert lhs >= transfer_pressure(f) + transfer_pressure(g) - 1e-6

    @pytest.mark.parametrize("weights,want", [
        ({0: 1, 3: 1e300, 4: 1}, 690.7755278982137),
        ({0: 1e250, 1: 1, 5: 1}, 575.6462732485114),
    ])
    def test_extreme_weights_converge(self, monkeypatch, weights, want):
        # solved on the weights divided by the largest, every sector
        # converges or is pruned; unscaled, sectors ran all 500000 steps
        solves = []
        solve = entropy._solve_sectors

        def spy(T, tol, max_iter):
            solves.extend(solve(T, tol, max_iter))
            return solves

        monkeypatch.setattr(entropy, "_solve_sectors", spy)
        f = GroupRingElement(1, {(a,): c for a, c in weights.items()})
        assert transfer_pressure(f) == pytest.approx(want, rel=1e-12)
        assert solves and all(s.converged or s.pruned for s in solves)

    @pytest.mark.parametrize("weights", _TRINOMIALS)
    def test_unit_weights_solve_unscaled(self, weights):
        f = GroupRingElement(1, {(a,): c for a, c in weights.items()})
        assert transfer_pressure(f) == math.log(entropy._spectral_radius(transfer_matrix(f)))

    def test_trace_reproduces_torus_counts(self):
        f = indicator(0, 1, 2)
        for n in range(6, 12):
            tr = oracles.transfer_torus_value({0: 1, 1: 1, 2: 1}, n)
            count = torus_permanent(f, TorusQuotient((n,)), exact=True).linear
            assert abs(tr - count) < 1e-6

    def test_trace_reproduces_weighted_torus(self):
        weights = {0: 1, 1: 2, 2: 1}
        f = GroupRingElement(1, {(a,): c for a, c in weights.items()})
        for n in (6, 8, 10):
            tr = oracles.transfer_torus_value(weights, n)
            v = torus_permanent(f, TorusQuotient((n,)), exact=True).linear
            assert abs(tr - v) <= 1e-9 * max(1.0, abs(v))


class TestClosedFormBounds:
    def test_lower_formula_values(self):
        f = indicator(0, 1, 2)
        assert abs(pressure_lower_bound(f) - (math.log(3) - 1)) < 1e-15
        e_mass = GroupRingElement(1, {(0,): math.e})
        assert abs(pressure_lower_bound(e_mass)) < 1e-15
        unit = GroupRingElement(1, {(0,): 1.0})
        assert abs(pressure_lower_bound(unit) + 1.0) < 1e-15

    def test_lower_formula_past_the_float_range(self):
        # an int norm of 2e308 is exact; a float one is inf, so the floor
        # takes log ||g||_1 + k log 2 - 1 from unit_scale()
        ints = GroupRingElement(1, {(0,): int(1e308), (1,): int(1e308)})
        floats = GroupRingElement(2, {(1, 0): 1e308, (-1, 0): 1e308,
                                      (0, 1): 1e308, (0, -1): 1e308})
        assert pressure_lower_bound(ints) == pytest.approx(
            math.log(1e308) + math.log(2) - 1, rel=1e-15)
        assert pressure_lower_bound(floats) == pytest.approx(
            math.log(1e308) + math.log(4) - 1, rel=1e-15)

    def test_upper_formula_values(self):
        assert entropy_upper_bound(Window.of([(0,)])) == 0.0
        assert abs(entropy_upper_bound(Window.of([(0,), (1,)])) - math.log(2) / 2) < 1e-15
        a3 = Window.of([(0,), (1,), (2,)])
        assert abs(entropy_upper_bound(a3) - math.log(6) / 3) < 1e-15

    def test_bound_sandwich_small_cases(self):
        for pts in ([0, 1, 2], [0, 2, 5], [0, 1, 2, 3], [0, 1, 4, 6]):
            f = indicator(*pts)
            p = transfer_pressure(f)
            assert pressure_lower_bound(f) <= p + 1e-12
            assert p <= entropy_upper_bound(f.support()) + 1e-12


class TestUpperEstimates:
    def test_two_point_support_decreases_to_zero(self):
        f = indicator(0, 1)
        sched = WindowSchedule.boxes(1, range(2, 11))
        rows, skipped = upper_estimates(f, sched, modes=("admissible",))
        assert not skipped
        values = [r.normalized for r in rows]
        expected = [math.log(2) / n for n in range(2, 11)]
        assert np.allclose(values, expected, atol=1e-12)

    def test_point_mass_estimates_constant(self):
        f = GroupRingElement(1, {(0,): 3.0})
        sched = WindowSchedule.boxes(1, [2, 4])
        rows, _ = upper_estimates(f, sched, modes=("admissible",))
        for r in rows:
            assert abs(r.normalized - math.log(3)) < 1e-12

    def test_window_values_dominate_transfer_pressure(self):
        f = GroupRingElement(1, {(0,): 1, (1,): 2, (2,): 1})
        p = transfer_pressure(f)
        sched = WindowSchedule.boxes(1, [4, 7, 10])
        rows, _ = upper_estimates(f, sched)
        for r in rows:
            assert r.normalized >= p - 1e-9

    def test_golden_window_estimates_bracket_limit(self):
        f = indicator(0, 1, 2)
        sched = WindowSchedule((Window.box([0], [12]), Window.box([0], [13])),
                               ("box12", "box13"))
        rows, _ = upper_estimates(f, sched, modes=("admissible",))
        # counts follow F(n+3)+2; the box-12 count is 610+2
        assert round(math.exp(rows[0].log_value)) == 612
        assert rows[0].normalized > GOLDEN
        assert rows[1].normalized > GOLDEN
        assert rows[1].normalized - GOLDEN < 0.05

    def test_monotone_in_the_weight(self):
        f = GroupRingElement(1, {(0,): 1, (1,): 1, (2,): 1})
        g = GroupRingElement(1, {(0,): 1, (1,): 2, (2,): 1})
        sched = WindowSchedule.boxes(1, [4, 6])
        rows_f, _ = upper_estimates(f, sched)
        rows_g, _ = upper_estimates(g, sched)
        for a, b in zip(rows_f, rows_g):
            assert a.normalized <= b.normalized + 1e-12

    def test_scaling_shifts_estimates_exactly(self):
        f = indicator(0, 1, 2)
        g = f.scale(3)
        sched = WindowSchedule.boxes(1, [4, 6])
        rows_f, _ = upper_estimates(f, sched, modes=("admissible",))
        rows_g, _ = upper_estimates(g, sched, modes=("admissible",))
        for a, b in zip(rows_f, rows_g):
            assert abs(b.normalized - a.normalized - math.log(3)) < 1e-12

    def test_capacity_reports_partial_schedule(self):
        f = GroupRingElement.indicator(Window.of([(0, 0), (1, 0), (0, 1)]))
        sched = WindowSchedule.boxes(2, [2, 6])
        rows, skipped = upper_estimates(f, sched, budget=500)
        assert any(r.window == "2x2" for r in rows)
        assert any("6x6" in s for s in skipped)


MODES = ("admissible", "injective")


def per_window(f, schedule, budget=10**8):
    """The rows and skip lines of upper_estimates, built from one
    window_permanent call per window and mode."""
    rows, skipped = [], []
    for label, F in schedule:
        for mode in MODES:
            try:
                v = window_permanent(f, F, mode=mode, budget=budget)
            except CapacityError as e:
                skipped.append(f"{label}[{mode}]: {e}")
                continue
            name = label if mode == "admissible" else f"{label}-inj"
            rows.append(EstimateRow(name, len(F), v.log, v.normalized(len(F)), "upper"))
    return rows, skipped


def prefixes(points, sizes):
    """The schedule of the windows of the first n of the sorted points."""
    points = sorted(points)
    return WindowSchedule(tuple(Window.of(points[:n]) for n in sizes),
                          tuple(f"p{n}" for n in sizes))


class TestNestedSchedules:
    """Windows that are prefixes of the largest window's sorted points are
    read at cuts of one sweep, and must equal their per-window values."""

    @pytest.mark.parametrize("terms", [
        {(0,): 1, (7,): 1, (8,): 1},  # a spectral-1d trinomial
        {(0,): 2, (2,): 3},  # two components
        {(0,): 1, (3,): 2, (6,): 1},  # three components
        {(-3,): 1, (0,): 2, (2,): 5},  # translated, negative exponents
        {(-2,): 3, (-1,): 1, (1,): 2, (4,): 1},
    ])
    def test_integer_weights_match_exactly(self, terms):
        f = GroupRingElement(1, terms)
        schedule = WindowSchedule.boxes(1, range(1, 13))
        assert upper_estimates(f, schedule) == per_window(f, schedule)

    @pytest.mark.parametrize("terms", [
        {(0,): 0.3, (7,): 1.7, (8,): 0.45},
        {(0,): 0.7, (2,): 2.9},
        {(0,): 1.1, (3,): 0.2, (6,): 3.3},
        {(-3,): 0.6, (0,): 1.25, (2,): 7.1},
        {(0,): 1e200, (1,): 3.5e199, (3,): 1e-5},
    ])
    def test_float_weights_match_within_1e_14(self, terms):
        f = GroupRingElement(1, terms)
        schedule = WindowSchedule.boxes(1, range(1, 13))
        rows, skipped = upper_estimates(f, schedule)
        want, _ = per_window(f, schedule)
        assert not skipped and len(rows) == len(want)
        for r, w in zip(rows, want):
            assert (r.window, r.size, r.kind) == (w.window, w.size, w.kind)
            assert math.isclose(r.log_value, w.log_value, rel_tol=1e-14, abs_tol=1e-14)

    @pytest.mark.parametrize("terms", [{(0,): 1, (3,): 1, (6,): 1}, {(0,): 0.5, (2,): 1.5}])
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_single_window_schedule(self, terms, n):
        f = GroupRingElement(1, terms)
        schedule = WindowSchedule.boxes(1, [n])
        assert upper_estimates(f, schedule) == per_window(f, schedule)

    @pytest.mark.parametrize("terms", [
        {(0, 0): 1, (1, 0): 1, (0, 1): 1},
        {(0, 0): 2, (1, 1): 1, (-1, 2): 3},
    ])
    def test_two_dimensional_prefixes_match_exactly(self, terms):
        f = GroupRingElement(2, terms)
        box = Window.box([0, 0], [3, 4]).points
        schedule = prefixes(box, [1, 2, 5, 7, 8, 12])
        assert upper_estimates(f, schedule) == per_window(f, schedule)

    def test_one_frontier_per_component_and_mode(self, monkeypatch):
        # sites 0..11 with claims s, s + 3, s + 6 split into 3 residue
        # classes, so 9 windows in 2 modes take 6 frontier steppers, not 54
        calls = []
        frontier = permanent._frontier
        monkeypatch.setattr(permanent, "_frontier",
                            lambda rows, *a: calls.append(len(rows)) or frontier(rows, *a))
        f = indicator(0, 3, 6)
        rows, _ = upper_estimates(f, WindowSchedule.boxes(1, range(4, 13)))
        assert len(rows) == 18
        assert calls == [4, 4, 4] * 2

    def test_two_dimensional_boxes_run_window_by_window(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("2-D boxes are not prefixes of one another")

        monkeypatch.setattr(entropy, "window_permanents", refuse)
        f = GroupRingElement.indicator(Window.of([(0, 0), (1, 0), (0, 1)]))
        schedule = WindowSchedule.boxes(2, [2, 3])
        assert upper_estimates(f, schedule) == per_window(f, schedule)


class TestNestedCapacity:
    """At budget 75 the shared sweep of boxes 4..12 reaches box4..box9 in
    each mode, its three components advancing cut by cut, and at budget 40
    box4..box6: in both cases the windows that fit alone. Only the windows
    past those run alone, and they are skipped, exactly as in a per-window
    run."""

    F = indicator(0, 3, 6)
    SCHEDULE = WindowSchedule.boxes(1, range(4, 13))
    BUDGET = 75
    REACHED = [(40, 3), (BUDGET, 6)]  # (budget, windows the shared sweep reaches)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("budget, reached", REACHED)
    def test_shared_sweep_stops_partway(self, mode, budget, reached):
        taken = []
        with pytest.raises(CapacityError):
            for v in permanent.window_permanents(self.F, self.SCHEDULE.windows[-1],
                                                 range(4, 13), mode, budget):
                taken.append(v)
        want = [window_permanent(self.F, F, mode=mode, budget=budget)
                for F in self.SCHEDULE.windows[:reached]]
        assert taken == want
        rows, skipped = per_window(self.F, self.SCHEDULE, budget)
        assert [r.window for r in rows[::2]] == [f"box{n}" for n in range(4, 4 + reached)]
        assert len(skipped) == 2 * (9 - reached)

    @pytest.mark.parametrize("budget, reached", REACHED)
    def test_fallback_runs_only_unreached_windows(self, monkeypatch, budget, reached):
        calls = []
        single = entropy.window_permanent
        monkeypatch.setattr(entropy, "window_permanent",
                            lambda f, F, **kw: calls.append(len(F)) or single(f, F, **kw))
        assert upper_estimates(self.F, self.SCHEDULE, budget=budget) == \
            per_window(self.F, self.SCHEDULE, budget)
        assert sorted(calls) == [n for n in range(4 + reached, 13) for _ in MODES]

    @pytest.mark.parametrize("mode", MODES)
    def test_shared_sweep_node_cost(self, mode):
        # the three components' steppers spend 108 nodes on box12's 12 sites
        box12 = self.SCHEDULE.windows[-1]
        values = list(permanent.window_permanents(self.F, box12, range(4, 13), mode, 108))
        assert values == [window_permanent(self.F, F, mode=mode) for F in self.SCHEDULE.windows]
        taken = []
        with pytest.raises(CapacityError):
            for v in permanent.window_permanents(self.F, box12, range(4, 13), mode, 107):
                taken.append(v)
        assert taken == values[:len(taken)]

    @pytest.mark.parametrize("mode", MODES)
    def test_reader_that_stops_early_spends_no_later_nodes(self, mode):
        # boxes 4..6 fit in 40 nodes and box 7 does not: taking three values
        # runs no row past box 6's cut, so no CapacityError
        box12 = self.SCHEDULE.windows[-1]
        first = itertools.islice(permanent.window_permanents(self.F, box12, range(4, 13),
                                                             mode, 40), 3)
        assert list(first) == [window_permanent(self.F, F, mode=mode, budget=40)
                               for F in self.SCHEDULE.windows[:3]]
        assert [len(F) for F in self.SCHEDULE.windows[:3]] == [4, 5, 6]

    def test_arguments_are_checked_at_the_call(self):
        with pytest.raises(ValueError, match="mode must be"):
            permanent.window_permanents(self.F, self.SCHEDULE.windows[-1], range(4, 13),
                                        "bogus")

    def test_report_matches_per_window_calls(self):
        want, skipped = per_window(self.F, self.SCHEDULE, self.BUDGET)
        report = estimate_report(self.F, self.SCHEDULE, budget=self.BUDGET)
        assert [r for r in report.rows if r.kind == "upper"] == want
        assert report.capacity_skipped[:len(skipped)] == tuple(skipped)
        assert not any(s.startswith("box") for s in report.capacity_skipped[len(skipped):])

    def test_cli_exit_3_with_per_window_rows(self, capsys):
        want, skipped = per_window(self.F, self.SCHEDULE, self.BUDGET)
        code = main(["entropy", "--inline", '{"points": [[0], [3], [6]]}',
                     "--windows", "4..12", "--budget", str(self.BUDGET)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert [r for r in payload["rows"] if r["kind"] == "upper"] == \
            json.loads(_dump({"rows": [asdict(r) for r in want]}))["rows"]
        assert payload["capacity_skipped"][:len(skipped)] == skipped


class TestTorusEstimates:
    def test_two_point_counts_are_two(self):
        f = indicator(0, 1)
        quotients = [TorusQuotient((n,)) for n in range(4, 13)]
        rows, skipped = torus_estimates(f, quotients)
        assert not skipped
        for r, n in zip(rows, range(4, 13)):
            assert abs(r.log_value - math.log(2)) < 1e-12
            assert abs(r.normalized - math.log(2) / n) < 1e-12

    def test_three_interval_mod_four_counts_nine(self):
        f = indicator(-1, 0, 1)
        rows, _ = torus_estimates(f, [TorusQuotient((4,))])
        assert abs(rows[0].log_value - math.log(9)) < 1e-12

    def test_collision_raises_with_pair(self):
        f = indicator(0, 3)
        with pytest.raises(ValueError, match="collide"):
            torus_estimates(f, [TorusQuotient((3,))])

    def test_default_tori_skip_colliding_moduli(self):
        f = indicator(-1, 0, 1)
        tori = default_tori(f, max_side=6)
        assert [q.moduli for q in tori] == [(3,), (4,), (5,), (6,)]


class TestEstimateReport:
    def test_running_infimum_nonincreasing(self):
        f = indicator(0, 1, 2)
        rep = estimate_report(f, WindowSchedule.boxes(1, [3, 5, 7, 9]))
        inf = rep.running_infimum
        assert all(b <= a + 1e-15 for a, b in zip(inf, inf[1:]))
        assert rep.certified_upper == inf[-1]

    def test_upper_dominates_closed_form_lower(self):
        f = indicator(0, 1, 2)
        rep = estimate_report(f, WindowSchedule.boxes(1, [4, 6]))
        assert rep.certified_upper >= rep.closed_form_lower

    def test_point_mass_report_all_zero(self):
        f = GroupRingElement(1, {(0,): 1})
        rep = estimate_report(f, WindowSchedule.boxes(1, [2, 4]))
        assert rep.certified_upper == 0.0
        assert rep.transfer_value == 0.0
        for r in rep.rows:
            if r.kind in ("upper", "torus", "transfer"):
                assert abs(r.normalized) < 1e-12

    def test_two_point_bracket_collapses_to_zero(self):
        f = indicator(0, 1)
        rep = estimate_report(f, WindowSchedule.boxes(1, [4, 8, 12]),
                              tori=[TorusQuotient((n,)) for n in (8, 12)])
        assert rep.transfer_value == 0.0
        assert 0.0 < rep.certified_upper <= math.log(2) / 12 + 1e-12
        assert rep.lower_estimate <= math.log(2) / 8 + 1e-12
        assert rep.lower_label == "converging-lower"

    def test_golden_report_brackets_transfer_value(self):
        f = indicator(0, 1, 2)
        rep = estimate_report(f, WindowSchedule.boxes(1, [6, 9, 12]),
                              tori=[TorusQuotient((n,)) for n in (10, 12, 14)])
        assert rep.transfer_value is not None
        assert abs(rep.transfer_value - GOLDEN) < 1e-12
        assert rep.certified_upper > GOLDEN
        assert abs(rep.lower_estimate - GOLDEN) < 0.05

    def test_two_dim_report_label_is_heuristic(self):
        f = GroupRingElement.indicator(Window.of([(0, 0), (1, 0), (0, 1)]))
        rep = estimate_report(f, WindowSchedule.boxes(2, [2, 3]),
                              tori=[TorusQuotient((3, 3))])
        assert rep.lower_label == "heuristic-lower"
        assert rep.transfer_value is None

    def test_rejects_signed_weights(self):
        f = GroupRingElement(1, {(0,): 1, (1,): -1})
        with pytest.raises(ValueError):
            estimate_report(f, WindowSchedule.boxes(1, [2]))

    def test_capacity_skips_recorded_not_fatal(self):
        f = GroupRingElement.indicator(Window.of([(0, 0), (1, 0), (0, 1)]))
        rep = estimate_report(f, WindowSchedule.boxes(2, [2, 6]), budget=500,
                              tori=[TorusQuotient((3, 3))])
        assert rep.capacity_skipped
        assert rep.certified_upper < math.inf


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True),
       st.integers(2, 4))
def test_window_estimates_dominate_transfer(points, size):
    f = GroupRingElement.indicator(Window.of([(a,) for a in points]))
    p = transfer_pressure(f)
    v = window_permanent(f, Window.box([0], [size + max(points)]))
    assert v.normalized(size + max(points)) >= p - 1e-9
