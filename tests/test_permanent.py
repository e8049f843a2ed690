import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from latperm.groupring import (
    CapacityError,
    GroupRingElement,
    TorusQuotient,
    Window,
    add,
    dilate,
    interior,
    separated_on_quotient,
    sub,
)
from latperm.entropy import entropy_upper_bound, pressure_lower_bound
from latperm.fkdet import mahler_measure_roots
from latperm.patterns import enumerate_injective
from latperm.permanent import (
    LogValue,
    _components,
    _dfs_permanent,
    _sweep,
    bregman_bound,
    det_identity_check,
    doubly_stochastic_extension,
    ffstar_section_matrix,
    finite_det_ffstar,
    matrix_permanent,
    ryser_permanent,
    torus_permanent,
    vdw_bound,
    window_permanent,
    window_permanents,
)

import latperm.permanent as permanent
import oracles


def elem(dim, terms):
    return GroupRingElement(dim, terms)


def ones(A_points):
    pts = [tuple(p) for p in A_points]
    return GroupRingElement(len(pts[0]), {p: 1 for p in pts})


@st.composite
def weighted_instance(draw, dim=None, signed=False, max_window=4):
    d = dim if dim is not None else draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                        min_size=n, max_size=n, unique=True))
    lo = -2 if signed else 1
    coefs = draw(st.lists(st.integers(lo, 2).filter(lambda c: c != 0),
                          min_size=n, max_size=n))
    f = GroupRingElement(d, dict(zip(pts, coefs)))
    fn = draw(st.integers(1, max_window))
    fpts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                         min_size=fn, max_size=fn, unique=True))
    return f, Window.of(fpts)


class TestWindowPermanent:
    def test_interval_counts(self):
        f = ones([[0], [1]])
        F = Window.of([[0], [1]])
        assert window_permanent(f, F, mode="injective").linear == 3
        assert window_permanent(f, F, mode="admissible").linear == 2

    def test_long_interval_admissible_count_is_two(self):
        f = ones([[0], [1]])
        F = Window.box([0], [10])
        assert window_permanent(f, F, mode="admissible").linear == 2

    def test_point_mass_gives_power(self):
        f = elem(1, {(0,): 3})
        F = Window.box([0], [4])
        for mode in ("injective", "admissible"):
            assert window_permanent(f, F, mode=mode).linear == 81

    def test_empty_window_is_one(self):
        f = ones([[0], [1]])
        assert window_permanent(f, Window.of([])).linear == 1

    def test_injective_count_matches_enumeration(self):
        f = ones([[0, 0], [1, 0], [0, 1]])
        F = Window.box([0, 0], [2, 2])
        count = len(list(enumerate_injective(f.support(), F)))
        assert window_permanent(f, F, mode="injective").linear == count

    @given(weighted_instance())
    @settings(deadline=None, max_examples=60)
    def test_matches_naive_sum(self, inst):
        f, F = inst
        from latperm.groupring import interior

        A = f.support()
        req = interior(F, A).points
        want_inj = oracles.naive_window_sum(f.terms, F.points, mode="injective")
        want_adm = oracles.naive_window_sum(f.terms, F.points, mode="admissible",
                                            required=req)
        assert window_permanent(f, F, mode="injective").linear == want_inj
        assert window_permanent(f, F, mode="admissible").linear == want_adm

    @given(weighted_instance())
    @settings(deadline=None, max_examples=40)
    def test_backends_agree(self, inst):
        f, F = inst
        for mode in ("injective", "admissible"):
            vals = []
            for backend in ("sweep", "dfs", "ryser"):
                vals.append(window_permanent(f, F, mode=mode, backend=backend).linear)
            ref = vals[0]
            for v in vals[1:]:
                assert v == ref

    def test_backends_agree_past_float_precision(self):
        # (2^60 + 1) + u on two sites: c^2 + c + 1, with c too big for a float
        c = 2**60 + 1
        f = elem(1, {(0,): c, (1,): 1})
        F = Window.box([0], [2])
        for backend in ("sweep", "dfs", "ryser"):
            got = window_permanent(f, F, mode="injective", backend=backend).linear
            assert got == c * c + c + 1

    @pytest.mark.parametrize("dims", [(1, 2), (2, 1), (2, 3)])
    def test_window_of_another_dimension_is_rejected(self, dims):
        f = elem(dims[0], {(0,) * dims[0]: 1, (1,) * dims[0]: 1})
        F = Window.box([0] * dims[1], [2] + [3] * (dims[1] - 1))
        with pytest.raises(ValueError, match="window dimension does not match element"):
            window_permanent(f, F)

    @pytest.mark.parametrize("backend", ["auto", "swep"])
    def test_unknown_backend_is_rejected(self, backend):
        # before the zero element's early return
        with pytest.raises(ValueError, match="unknown backend"):
            window_permanent(elem(1, {}), Window.box([0], [3]), backend=backend)

    @given(weighted_instance())
    @settings(deadline=None, max_examples=40)
    def test_float_tracks_exact(self, inst):
        f, F = inst
        for mode in ("injective", "admissible"):
            exact = window_permanent(f, F, mode=mode).linear
            approx = window_permanent(f, F, mode=mode, exact=False)
            if exact == 0:
                assert approx.sign == 0
            else:
                assert approx.linear == pytest.approx(exact, rel=1e-10)

    def test_frontier_wider_than_int64_keys(self):
        # the first site can claim 70 targets, 69 of which stay live
        f = elem(1, {(a,): 1 for a in range(70)})
        F = Window.box([0], [3])
        for mode in ("injective", "admissible"):
            want = window_permanent(f, F, mode=mode, backend="dfs").linear
            assert want == 328716
            assert window_permanent(f, F, mode=mode).linear == want
            approx = window_permanent(f, F, mode=mode, exact=False).linear
            assert approx == pytest.approx(want, rel=1e-12)

    @given(weighted_instance(max_window=3), st.integers(1, 3))
    @settings(deadline=None, max_examples=40)
    def test_scaling_is_exact_in_integer_mode(self, inst, c):
        f, F = inst
        base = window_permanent(f, F).linear
        scaled = window_permanent(f.scale(c), F).linear
        assert scaled == c ** len(F) * base

    @given(weighted_instance(max_window=3), st.tuples(st.integers(-3, 3)))
    @settings(deadline=None, max_examples=40)
    def test_translation_invariance(self, inst, shift):
        f, F = inst
        s = shift * f.dim if f.dim > 1 else shift
        s = s[: f.dim]
        for mode in ("injective", "admissible"):
            a = window_permanent(f, F, mode=mode)
            b = window_permanent(f, F.translate(s), mode=mode)
            c = window_permanent(f.translate(s), F, A=f.support().translate(s), mode=mode)
            assert a.linear == b.linear == c.linear

    @given(weighted_instance(max_window=4))
    @settings(deadline=None, max_examples=40)
    def test_admissible_at_most_injective_for_nonnegative(self, inst):
        f, F = inst
        adm = window_permanent(f, F, mode="admissible").linear
        inj = window_permanent(f, F, mode="injective").linear
        assert adm <= inj
        if len(interior(F, f.support())) == 0:
            assert adm == inj

    def test_budget_exhaustion(self):
        f = ones([[0], [1], [2]])
        with pytest.raises(CapacityError):
            window_permanent(f, Window.box([0], [30]), budget=5)

    def test_backends_agree_in_float_mode(self):
        f = GroupRingElement(1, {(0,): 1, (1,): 3, (3,): 1})
        F = Window.box([0], [5])
        for mode in ("admissible", "injective"):
            vals = [window_permanent(f, F, mode=mode, backend=b,
                                     exact=False).linear
                    for b in ("sweep", "dfs", "ryser")]
            assert max(vals) - min(vals) <= 1e-10 * max(1.0, max(vals))


def components_by_closure(rows):
    """(members, target mask) per component, grown from its first row by
    adding every row that shares a target until none is left."""
    targets = [{j for j, _ in row} for row in rows]
    seen, out = set(), []
    for k in range(len(rows)):
        if k in seen:
            continue
        members, reached = {k}, set(targets[k])
        while new := {i for i, t in enumerate(targets) if i not in members and t & reached}:
            members |= new
            reached.update(*(targets[i] for i in new))
        seen |= members
        out.append((sorted(members), sum(1 << j for j in reached)))
    return out


class TestComponents:
    DIMER = elem(2, {(1, 0): 2, (-1, 0): 1, (0, 1): 3, (0, -1): 1})

    @given(st.lists(st.lists(st.integers(0, 11), max_size=3, unique=True), max_size=10))
    def test_matches_closure(self, targets):
        rows = [[(j, 1) for j in row] for row in targets]
        assert _components(rows) == components_by_closure(rows)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(1, 5)
                                     if n * m <= 12])
    def test_dimer_windows_match_dfs(self, n, m):
        # even and odd sites claim disjoint targets, so the sweep runs two
        # components; dfs backtracks over the whole window
        F = Window.box([0, 0], [n, m])
        for mode in ("admissible", "injective"):
            want = window_permanent(self.DIMER, F, mode=mode, backend="dfs").linear
            assert window_permanent(self.DIMER, F, mode=mode).linear == want
            approx = window_permanent(self.DIMER, F, mode=mode, exact=False).linear
            assert approx == pytest.approx(want, rel=1e-12)

    def test_dimer_four_by_four_matches_dfs_per_parity(self):
        # a full dfs takes seconds (admissible) or blows 10^8 nodes
        # (injective) here, so each parity class of sites is backtracked on
        # its own and the two counts multiplied
        F = Window.box([0, 0], [4, 4])
        A = self.DIMER.support()
        index = {t: j for j, t in enumerate(dilate(F, A).points)}
        for mode in ("admissible", "injective"):
            for exact in (True, False):
                want = 1
                for parity in (0, 1):
                    # sites of one parity claim the targets of the other
                    sites = [s for s in F.points if sum(s) % 2 == parity]
                    req = 0
                    if mode == "admissible":
                        for t in interior(F, A).points:
                            if sum(t) % 2 != parity:
                                req |= 1 << index[t]
                    rows = [[(index[add(s, a)], w) for a, w in sorted(self.DIMER.terms.items())]
                            for s in sites]
                    want *= _dfs_permanent(rows, req, exact, 10**8)
                got = window_permanent(self.DIMER, F, mode=mode, exact=exact)
                if exact:
                    assert got.linear == want
                else:
                    assert got.linear == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_block_diagonal_matrix_matches_ryser(self, seed):
        rng = np.random.default_rng(seed)
        shapes = [(2, 3), (0, 2), (3, 3), (1, 2)]
        if seed % 2:
            shapes.insert(1, (3, 2))  # more rows than columns: permanent 0
        m = sum(r for r, _ in shapes)
        n = sum(c for _, c in shapes)
        M = np.zeros((m, n), dtype=int)
        i = j = 0
        for r, c in shapes:
            M[i:i + r, j:j + c] = rng.integers(1, 4, size=(r, c))
            i, j = i + r, j + c
        want = matrix_permanent(M, backend="ryser", exact=True)
        assert (want == 0) == bool(seed % 2)
        assert matrix_permanent(M, backend="sweep", exact=True) == want
        assert matrix_permanent(M.astype(float), backend="sweep") == \
            pytest.approx(want, rel=1e-12)

    def test_required_target_outside_every_row_is_zero(self):
        rows = [[(0, 1), (1, 2)], [(1, 1)]]
        assert next(_sweep(rows, 0b011, True, 100, [len(rows)])) == (1, 0)
        assert next(_sweep(rows, 0b111, True, 100, [len(rows)])) == (0, 0)
        assert next(_sweep(rows, 0b111, False, 100, [len(rows)])) == (0.0, 0)

    def test_components_share_one_node_budget(self):
        # one 3x3 all-ones block takes 21 nodes, two of them 42
        block = np.ones((3, 3), dtype=int)
        two = np.zeros((6, 6), dtype=int)
        two[:3, :3] = two[3:, 3:] = 1
        assert matrix_permanent(block, backend="sweep", exact=True, budget=21) == 6
        with pytest.raises(CapacityError):
            matrix_permanent(two, backend="sweep", exact=True, budget=41)
        assert matrix_permanent(two, backend="sweep", exact=True, budget=42) == 36

    def test_zero_product_skips_the_components_left(self):
        # rows 0 and 2 sum to 0 at both cuts while their frontier keeps a
        # state, so their 6 nodes are all: rows 1 and 3 never run
        rows = [[(0, 1), (1, -1)], [(2, 1), (3, 1)], [(0, 1), (1, 1)], [(2, 1), (3, 1)]]
        assert list(_sweep(rows, 0, True, 6, [3, 4])) == [(0, 0), (0, 0)]
        with pytest.raises(CapacityError):
            list(_sweep(rows, 0, True, 5, [3, 4]))


@st.composite
def sparse_rows(draw):
    """Up to 7 rows over 9 targets with up to 4 entries each, and a random
    required mask: targets die out of index order, and a bit freed by a
    dying target can be taken by a new one in the same row."""
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        targets = draw(st.lists(st.integers(0, 8), max_size=4, unique=True))
        rows.append([(j, draw(st.integers(-3, 3).filter(lambda w: w != 0)))
                     for j in targets])
    return rows, draw(st.integers(0, (1 << 9) - 1))


@st.composite
def cut_sweeps(draw):
    """sparse_rows with up to 6 ascending cuts, repeats and 0 allowed, and a
    node budget."""
    rows, req = draw(sparse_rows())
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), min_size=1, max_size=6)))
    return rows, req, cuts, draw(st.integers(0, 60))


class TestStableKeyBits:
    @given(sparse_rows())
    @settings(deadline=None, max_examples=300)
    def test_sweep_matches_dfs_on_sparse_rows(self, inst):
        rows, req = inst
        want = _dfs_permanent(rows, req, True, 10**7)
        assert next(_sweep(rows, req, True, 10**7, [len(rows)])) == (want, 0)
        frows = [[(j, float(w)) for j, w in row] for row in rows]
        assert math.ldexp(*next(_sweep(frows, req, False, 10**7, [len(frows)]))) == \
            pytest.approx(want, rel=1e-12, abs=1e-9)

    @given(cut_sweeps())
    @example(([[(0, 1)], [(1, 2), (2, -1)], [(0, 3)], [(2, 1)]], 0b101, [0, 1, 1, 2, 3, 4, 4], 3))
    @settings(deadline=None, max_examples=300)
    def test_multi_cut_sweep_matches_dfs_below_each_cut(self, inst):
        # rows 0 and 2 both claim only target 0, so the frontier empties at
        # row 2 of the example, and its cuts repeat and start at 0
        rows, req, cuts, budget = inst
        values = list(_sweep(rows, req, True, 10**7, cuts))
        for c, value in zip(cuts, values):
            later = sum(1 << j for j in {j for row in rows[c:] for j, _ in row})
            assert value == (_dfs_permanent(rows[:c], req & ~later, True, 10**7), 0)
        reached = []  # the values taken before the budget runs out
        try:
            for value in _sweep(rows, req, True, budget, cuts):
                reached.append(value)
        except CapacityError:
            pass
        assert reached == values[:len(reached)]

    @pytest.mark.parametrize("req", [0, 1 << 65 | 1 << 2])
    def test_frontier_above_62_bits_then_narrow(self, req):
        # the first two rows keep 70 targets live, so the keys turn into
        # Python ints; then targets 10..69 die and the keys return to int64
        # with bits 0..9, while the dying bits still sit above 62
        rows = [[(j, 1 + j % 3) for j in range(70)],
                [(j, 1 + j % 2) for j in range(69, -1, -1)],
                [(j, 2) for j in range(10)],
                [(j, 1) for j in range(0, 10, 2)]]
        want = _dfs_permanent(rows, req, True, 10**7)
        assert want > 0
        assert next(_sweep(rows, req, True, 10**7, [len(rows)])) == (want, 0)
        frows = [[(j, float(w)) for j, w in row] for row in rows]
        assert math.ldexp(*next(_sweep(frows, req, False, 10**7, [len(frows)]))) == \
            pytest.approx(want, rel=1e-12)


    @given(st.lists(st.dictionaries(st.integers(0, 6), st.integers(-2**16, 2**16).filter(bool),
                                    min_size=1, max_size=4), max_size=8),
           st.integers(0, (1 << 7) - 1))
    @example([{k: 2**11, 7 + 3 * k: 2**12, 8 + 3 * k: 2**12, 9 + 3 * k: 2**12}
              for k in range(7)], (1 << 7) - 1)
    @settings(deadline=None, max_examples=200)
    def test_values_promote_at_the_rows_their_sums_bound(self, rows, req):
        # values are Python ints after row k exactly when some row j <= k
        # had max(sum |values|, 1) * sum |weights of row j| >= 2^62 before
        # it. In the example each row must claim its own required target of
        # weight 2^11 but has 3 more of weight 2^12, so the running bound
        # reaches 2^62 at row 4, where the values sum to 2^44 and stay int64
        rows = [list(row.items()) for row in rows]
        cuts = range(len(rows) + 1)
        snaps = list(permanent._frontier(rows, req, True, 10**7, [0], cuts))
        promoted = False
        for k, (_, vals, _, _) in enumerate(snaps):
            assert (vals.dtype == object) == promoted
            if not vals.size or k == len(rows):
                break
            total = max(sum(abs(int(v)) for v in vals), 1)
            promoted = promoted or total * sum(abs(w) for _, w in rows[k]) >= 1 << 62


MODES = ("admissible", "injective")
UNDERFLOW = GroupRingElement(2, {(0, 0): 1e300, (1, 0): 3.0, (0, 1): 1e-300})  # g keeps 0.0


@st.composite
def window_plans(draw):
    """An element of 1..3 terms in d = 1..3 with integer or float
    coefficients, a window of 1..5 points, A = supp(f) or a superset, a
    mode and exact=None or False."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-2, 2)] * d)
    supp = draw(st.lists(point, min_size=1, max_size=3, unique=True))
    coef = st.one_of(st.integers(-3, 3).filter(bool),
                     st.floats(-1e6, 1e6).filter(lambda c: abs(c) > 1e-6))
    f = GroupRingElement(d, {p: draw(coef) for p in supp})
    extra = draw(st.lists(point, max_size=2))
    A = Window.of(set(supp) | set(extra)) if extra or draw(st.booleans()) else None
    F = Window.of(draw(st.lists(point, min_size=1, max_size=5, unique=True)))
    return f, F, A, draw(st.sampled_from(MODES)), draw(st.sampled_from([None, False]))


def swapped(axes, points):
    return [tuple(p[i] for i in axes) for p in points]


class TestWindowPlan:
    """The one-pass plan gives the rows, required columns and column count
    of the two-pass construction, in sorted target order."""

    @given(window_plans())
    @example((UNDERFLOW, Window.box([0, 0], [2, 3]), None, "admissible", None))
    @example((UNDERFLOW, Window.box([0, 0], [3, 2]),
              Window.box([-1, -1], [3, 3]), "admissible", None))
    @example((elem(1, {(0,): 1, (2,): 2}), Window.box([0], [4]),
              Window.of([(0,), (1,), (2,)]), "admissible", None))
    @settings(deadline=None, max_examples=200)
    def test_matches_the_two_pass_plan(self, inst):
        f, F, A, mode, exact = inst
        want = oracles.two_pass_window_rows(f, F, A, mode, exact)
        assert repr(permanent._window_rows(f, F, A, mode, exact)) == repr(want)
        # the reordered plan is the two-pass plan of the isomorphic image
        extent = [max(c) - min(c) for c in zip(*F.points)]
        axes = sorted(range(f.dim), key=lambda i: -extent[i])
        image = GroupRingElement(f.dim, dict(zip(swapped(axes, f.terms), f.terms.values())))
        At = None if A is None else Window.of(swapped(axes, A.points))
        want = oracles.two_pass_window_rows(image, Window.of(swapped(axes, F.points)), At,
                                            mode, exact)
        assert repr(permanent._window_rows(f, F, A, mode, exact, reorder=True)) == repr(want)

    def test_interior_is_the_targets_hit_by_all_of_A(self):
        F, A = Window.box([0, 0], [3, 4]), Window.of([(0, 0), (1, 0), (0, 2)])
        assert set(interior(F, A).points) == oracles.interior_scan(F.points, A.points)
        assert dilate(F, A).point_set == {tuple(map(sum, zip(t, a))) for t in F for a in A}
        assert len(interior(F, A)) == 4  # rows 1..2, columns 2..3

    def test_required_columns_keep_the_ryser_bits(self):
        # inclusion-exclusion over the required columns in sorted target order
        f = GroupRingElement(2, {(1, 0): 0.3, (-1, 0): 0.7, (0, 1): 1.1, (0, -1): 1.9})
        F = Window.box([0, 0], [3, 3])
        rows, required, _, ncols = oracles.two_pass_window_rows(f, F, None, "admissible", False)
        want = permanent._inclusion_exclusion_permanent(rows, ncols, required, False)
        got = window_permanent(f, F, backend="ryser", exact=False)
        assert got.linear == permanent._scaled_logvalue(want, 0, 0, len(F)).linear


class TestAxisOrder:
    """window_permanent sweeps a window along its longest axis; the nested
    cuts of window_permanents keep F's own order."""

    DIMER = GroupRingElement(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})
    QUAD = GroupRingElement(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})

    @pytest.mark.parametrize("f, budget", [(DIMER, 1420), (QUAD, 3968)])
    def test_wide_window_fits_the_budget_of_its_transpose(self, f, budget):
        wide, tall = Window.box([0, 0], [3, 16]), Window.box([0, 0], [16, 3])
        want = window_permanent(f, tall, budget=budget).linear
        with pytest.raises(CapacityError):
            window_permanent(f, tall, budget=budget - 1)
        assert window_permanent(f, wide, budget=budget).linear == want
        with pytest.raises(CapacityError):  # the wide window in its given order
            next(permanent.window_permanents(f, wide, [len(wide)], budget=100 * budget))

    def test_dimer_4x24_at_the_default_budget(self):
        want = window_permanent(self.DIMER, Window.box([0, 0], [24, 4])).linear
        assert window_permanent(self.DIMER, Window.box([0, 0], [4, 24])).linear == want
        assert want == 23539501001176980575402368061421360400

    @pytest.mark.parametrize("axes", list(itertools.permutations(range(3))))
    def test_permuted_3d_box_keeps_its_value(self, axes):
        f = GroupRingElement(3, {(0, 0, 0): 2, (1, 0, 0): 1, (0, 1, 0): 3,
                                 (0, 0, 1): 1, (1, 0, 1): -1})
        lengths = (1, 2, 3)
        F = Window.box([0, 0, 0], [lengths[i] for i in axes])
        g = GroupRingElement(3, dict(zip(swapped(axes, f.terms), f.terms.values())))
        base = Window.box([0, 0, 0], lengths)
        for mode in MODES:
            want = window_permanent(f, base, mode=mode, backend="dfs").linear
            assert window_permanent(g, F, mode=mode).linear == want
            assert window_permanent(g, F, mode=mode, backend="dfs").linear == want
            assert window_permanent(g, F, mode=mode, exact=False).linear == \
                pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_nested_cuts_keep_the_window_order(self, mode):
        # the first 6 points of the 2x6 box are its row x = 0: swept along
        # the long axis, no cut would hold them
        F = Window.box([0, 0], [2, 6])
        sizes = [1, 3, 6, 8, 12]
        got = list(permanent.window_permanents(self.QUAD, F, sizes, mode))
        assert got == [window_permanent(self.QUAD, Window.of(F.points[:n]), mode=mode)
                       for n in sizes]


class TestSubadditivity:
    @given(weighted_instance(dim=1, max_window=3),
           st.lists(st.tuples(st.integers(-2, 2)), min_size=1, max_size=3, unique=True))
    @settings(deadline=None, max_examples=60)
    def test_union_submultiplicative_after_normalization(self, inst, other_pts):
        f, F1 = inst
        F2 = Window.of(other_pts)
        union = Window.of(set(F1.points) | set(F2.points))
        kappa = f.min_positive()
        for mode in ("admissible", "injective"):
            pu = window_permanent(f, union, mode=mode).linear / kappa ** len(union)
            p1 = window_permanent(f, F1, mode=mode).linear / kappa ** len(F1)
            p2 = window_permanent(f, F2, mode=mode).linear / kappa ** len(F2)
            assert pu <= p1 * p2 * (1 + 1e-12)

    @given(weighted_instance(max_window=4))
    @settings(deadline=None, max_examples=60)
    def test_pointwise_product_submultiplicative(self, inst):
        f, F = inst
        g = GroupRingElement(f.dim, {p: c + 1 for p, c in f.terms.items()})
        for mode in ("admissible", "injective"):
            pfg = window_permanent(f.pointwise(g), F, mode=mode).linear
            pf = window_permanent(f, F, mode=mode).linear
            pg = window_permanent(g, F, mode=mode).linear
            assert pfg <= pf * pg


class TestMatrixPermanent:
    def test_identity_and_ones(self):
        assert matrix_permanent(np.eye(3)) == pytest.approx(1.0)
        assert matrix_permanent(np.ones((3, 3))) == pytest.approx(6.0)
        assert matrix_permanent(np.ones((4, 4)), exact=True) == 24

    def test_rectangular_against_factorial_oracle(self):
        rng = np.random.default_rng(7)
        M = rng.integers(0, 4, size=(8, 10))
        want = oracles.factorial_permanent(M)
        assert matrix_permanent(M, exact=True) == want
        assert matrix_permanent(M.astype(float)) == pytest.approx(want, rel=1e-10)

    def test_more_rows_than_cols_is_zero(self):
        assert matrix_permanent(np.ones((3, 2))) == 0.0

    def test_zero_row_is_zero(self):
        M = np.array([[1, 2, 0], [0, 0, 0], [3, 1, 1]])
        assert matrix_permanent(M, backend="sweep", exact=True) == 0
        assert matrix_permanent(M, backend="sweep") == 0.0

    def test_ryser_column_cap(self):
        with pytest.raises(CapacityError):
            matrix_permanent(np.ones((2, 30)), backend="ryser")

    @pytest.mark.parametrize("backend", ["auto", "dfs"])
    def test_unknown_backend_is_rejected(self, backend):
        # before the early return of a matrix with more rows than columns
        with pytest.raises(ValueError, match="unknown backend"):
            matrix_permanent(np.ones((3, 2)), backend=backend)

    @pytest.mark.parametrize("seed", range(8))
    def test_default_is_the_sweep_and_matches_ryser(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        m = n if seed % 2 == 0 else int(rng.integers(1, n + 1))
        M = rng.integers(-3, 4, size=(m, n))
        got = matrix_permanent(M, exact=True)
        assert got == matrix_permanent(M, backend="sweep", exact=True)
        assert got == matrix_permanent(M, backend="ryser", exact=True)
        X = rng.random((m, n)) + 0.5
        got = matrix_permanent(X)
        assert type(got) is float
        assert got == matrix_permanent(X, backend="sweep")
        assert got == pytest.approx(matrix_permanent(X, backend="ryser"), rel=1e-12)

    @pytest.mark.parametrize("backend", ["sweep", "ryser"])
    def test_exact_mode_rejects_non_integer_entries(self, backend):
        M = np.array([[1.5, 1], [1, 1.5]])
        assert matrix_permanent(M, backend=backend) == pytest.approx(3.25, rel=1e-12)
        with pytest.raises(ValueError, match="non-integer"):
            matrix_permanent(M, backend=backend, exact=True)
        # integral floats still count as integers
        assert matrix_permanent(M * 2, backend=backend, exact=True) == 13

    @pytest.mark.parametrize("backend", ["sweep", "ryser"])
    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_exact_mode_rejects_non_finite_entries(self, backend, x):
        with pytest.raises(ValueError, match="non-integer"):
            matrix_permanent([[x]], backend=backend, exact=True)
        with pytest.raises(ValueError, match="non-integer"):
            matrix_permanent(np.array([[1, 2], [x, 3]]), backend=backend,
                             exact=True)

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_backends_agree_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(1, 5)
        n = rng.integers(m, 6)
        M = rng.integers(0, 3, size=(m, n))
        a = matrix_permanent(M, backend="ryser", exact=True)
        b = matrix_permanent(M, backend="sweep", exact=True)
        assert a == b == oracles.factorial_permanent(M)


class TestRyser:
    ROWS = [[(0, 2), (5, 7), (1, 3)], [(1, 1), (9, 4)]]

    def test_ignores_entries_outside_columns(self):
        # on columns 0 and 1 the rows are [2, 3] and [0, 1]
        for cols in ([0, 1], [1, 0]):
            assert ryser_permanent(self.ROWS, cols, exact=True) == 2
            assert ryser_permanent(self.ROWS, cols) == 2.0

    def test_pads_rectangular_rows(self):
        # on columns 0, 1, 5 the rows are [2, 3, 7] and [0, 1, 0]
        assert ryser_permanent(self.ROWS, [0, 1, 5], exact=True) == 9
        assert ryser_permanent([[(0, 1), (1, 2), (2, 3)]], range(3), exact=True) == 6
        assert ryser_permanent([], range(4), exact=True) == 1
        assert ryser_permanent([], range(4)) == 1.0
        assert ryser_permanent(self.ROWS, [1], exact=True) == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_factorial_oracle_on_kept_columns(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.integers(-3, 4, size=(int(rng.integers(1, 5)), 8))
        M[rng.random(M.shape) < 0.3] = 0
        rows = [[(j, int(x)) for j, x in enumerate(row) if x] for row in M]
        keep = sorted(rng.choice(8, size=int(rng.integers(len(M), 7)), replace=False))
        want = oracles.factorial_permanent(M[:, keep])
        assert ryser_permanent(rows, keep, exact=True) == want
        floats = [[(j, float(w)) for j, w in row] for row in rows]
        assert ryser_permanent(floats, keep) == pytest.approx(want, rel=1e-12, abs=1e-9)


class TestTorusPermanent:
    def test_two_cycles_survive_on_circle(self):
        f = ones([[0], [1]])
        for n in range(4, 13):
            v = torus_permanent(f, TorusQuotient((n,)))
            assert v.linear == 2

    def test_three_displacements_on_four_points(self):
        f = ones([[-1], [0], [1]])
        assert torus_permanent(f, TorusQuotient((4,))).linear == 9

    def test_collision_is_reported_with_pair(self):
        f = ones([[-1], [0], [1]])
        with pytest.raises(ValueError, match="collide"):
            torus_permanent(f, TorusQuotient((2,)))

    def test_cross_pattern_matches_backtracking_oracle(self):
        f = ones([[1, 0], [-1, 0], [0, 1], [0, -1]])
        for moduli in ((3, 3), (4, 4), (3, 4)):
            want = oracles.backtracking_torus_permanent(
                {p: 1 for p in f.terms}, moduli
            )
            got = torus_permanent(f, TorusQuotient(moduli))
            assert got.linear == want

    def test_weighted_torus_matches_oracle(self):
        f = elem(1, {(-1,): 2, (0,): 1, (1,): 3})
        want = oracles.backtracking_torus_permanent(dict(f.terms), (5,))
        assert torus_permanent(f, TorusQuotient((5,))).linear == want
        approx = torus_permanent(f, TorusQuotient((5,)), exact=False)
        assert approx.linear == pytest.approx(want, rel=1e-10)

    def test_small_torus_matches_ryser_on_dense_form(self):
        f = ones([[0], [1], [3]])
        q = TorusQuotient((7,))
        M = np.zeros((7, 7))
        for s in range(7):
            for a, c in f.terms.items():
                M[s, (s + a[0]) % 7] = c
        assert torus_permanent(f, q).linear == matrix_permanent(M, exact=True)

    def test_sweep_agrees_with_dfs(self):
        # on alternating quotients the sweep runs the even sites and squares
        # their value; the oracle backtracks over the whole quotient
        f = ones([[1, 0], [-1, 0], [0, 1], [0, -1]])
        g = elem(2, {(1, 0): 2, (-1, 0): 2, (0, 1): 3, (0, -1): 3})
        for h in (f, g):
            a = torus_permanent(h, TorusQuotient((4, 4)))
            assert a.linear == oracles.backtracking_torus_permanent(dict(h.terms), (4, 4))
        h1 = elem(1, {(-1,): 1, (1,): 1})
        a = torus_permanent(h1, TorusQuotient((6,)))
        assert a.linear == oracles.backtracking_torus_permanent(dict(h1.terms), (6,)) == 4

    def test_exact_mode_rejects_non_integer_coefficients(self):
        f = elem(1, {(0,): 1.5, (1,): 1})
        q = TorusQuotient((4,))
        # the identity and the rotation: 1.5^4 + 1
        assert torus_permanent(f, q).linear == pytest.approx(6.0625, rel=1e-12)
        with pytest.raises(ValueError, match="non-integer"):
            torus_permanent(f, q, exact=True)

    @pytest.mark.parametrize("exact", [True, False, None])
    def test_zero_element_is_zero(self, exact):
        v = torus_permanent(elem(1, {}), TorusQuotient((4,)), exact=exact)
        assert v.linear == 0 and v.sign == 0 and v.log == -math.inf

    def test_eight_by_eight_alternating_quotient(self):
        f = ones([[1, 0], [-1, 0], [0, 1], [0, -1]])
        v = torus_permanent(f, TorusQuotient((8, 8)))
        assert v.linear == 311853312 ** 2

    @pytest.mark.parametrize("a,b,m,n", [(1, 1, 4, 4), (1, 1, 6, 4), (2, 3, 6, 4),
                                         (1, 1, 6, 8), (1, 1, 8, 8), (3, 4, 8, 8),
                                         (1, 1, 10, 10), (3, 4, 10, 10)])
    def test_dimer_torus_matches_kasteleyn(self, a, b, m, n):
        f = elem(2, {(1, 0): a, (-1, 0): a, (0, 1): b, (0, -1): b})
        want = oracles.kasteleyn_torus(a, b, m, n)
        assert torus_permanent(f, TorusQuotient((m, n))).linear == want
        assert torus_permanent(f, TorusQuotient((m, n)), exact=False).linear == \
            pytest.approx(want, rel=1e-10)


class TestTorusCosets:
    """The sweep runs the coset of the origin under H = <A - A> and raises
    its value to the index [G:H]."""

    QUAD = elem(2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 1})
    DIMER = elem(2, {(1, 0): 2, (-1, 0): 2, (0, 1): 3, (0, -1): 1})
    CASES = [
        (QUAD, (5, 5), None),  # index 1
        (DIMER, (4, 4), None),  # index 2: even and odd sites
        (DIMER, (6, 4), None),
        (elem(1, {(0,): 1, (3,): 2}), (9,), 729),  # index 3: (1 + 2^3)^3
        (elem(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1}), (4, 4), 6561),  # index 4: 9^4
    ]

    @pytest.mark.parametrize("f,moduli,value", CASES)
    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_unsplit_sweep(self, f, moduli, value, exact):
        q = TorusQuotient(moduli)
        want = oracles.full_quotient_permanent(f, q, exact)
        got = torus_permanent(f, q, exact=exact)
        if exact:
            assert got == want
        else:
            # the join adds its products up in another order than the sweep
            assert got.sign == want.sign
            assert got.log == pytest.approx(want.log, rel=1e-12)
        if value is not None:
            assert got.linear == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("f,moduli,value", CASES[1:2] + CASES[3:])
    def test_matches_dfs(self, f, moduli, value):
        # the oracle backtracks over the whole quotient; on the quad 5x5 and
        # the dimer 6x4 it takes 25-50 s, and the Kasteleyn tests cover 6x4
        q = TorusQuotient(moduli)
        want = oracles.backtracking_torus_permanent(dict(f.terms), moduli)
        assert torus_permanent(f, q).linear == want
        assert torus_permanent(f, q, exact=False).linear == \
            pytest.approx(want, rel=1e-12)

    def test_forty_cosets(self):
        # 1 + u^40 on Z/4000: H = <40> has index 40, and each coset is a
        # 100-cycle whose sites all stay or all move, 2 patterns
        f = ones([[0], [40]])
        q = TorusQuotient((4000,))
        assert torus_permanent(f, q).linear == 2 ** 40
        assert torus_permanent(f, q, exact=False).log == pytest.approx(40 * math.log(2),
                                                                       rel=1e-12)

    def test_budget_counts_one_coset(self):
        # the half sweep of one parity class of the unit dimer 4x4 torus
        # takes 200 nodes; the whole class took 680 and both classes 1360
        f = ones([[1, 0], [-1, 0], [0, 1], [0, -1]])
        assert torus_permanent(f, TorusQuotient((4, 4)), budget=200).linear == 73984
        with pytest.raises(CapacityError):
            torus_permanent(f, TorusQuotient((4, 4)), budget=199)


DIMER_34 = elem(2, {(1, 0): 3, (-1, 0): 3, (0, 1): 4, (0, -1): 4})


@st.composite
def torus_instance(draw, signed=True):
    d = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(1, (12, 5, 3)[d - 1]), min_size=d, max_size=d))
    n = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                        min_size=n, max_size=n, unique=True))
    lo = -3 if signed else 1
    coefs = draw(st.lists(st.integers(lo, 3).filter(bool), min_size=n, max_size=n))
    f = elem(d, dict(zip(pts, coefs)))
    q = TorusQuotient(moduli)
    assume(separated_on_quotient(f.support(), q)[0])
    return f, q


class TestTorusJoin:
    """The sweep runs ceil(m/2) of the m slabs of the origin's coset and
    joins that frontier with its own translate; the oracle sweeps every
    site of the quotient, every coset, with no join and no change of axes."""

    CASES = [
        (elem(1, {(0,): 1, (1,): 2, (3,): 1}), (7,)),  # 7 slabs
        (elem(1, {(-1,): 2, (0,): 1, (1,): 3}), (8,)),  # 8 slabs
        (elem(1, {(0,): 1, (2,): 3}), (10,)),  # 2 cosets of 5 slabs
        (elem(2, {(0, 0): 1, (0, 1): 2}), (5, 3)),  # 1 slab: H = 0 x Z/3
        (elem(2, {(0, 0): 1, (2, 0): 1, (0, 1): 2}), (4, 3)),  # 2 slabs, 0 and 2
        (elem(2, {(0, 0): 1, (2, 0): 1}), (6, 3)),  # 3 slabs, 0, 2 and 4; 6 cosets
        (elem(2, {(0, 0): 2, (2, 0): 3}), (3, 6)),  # the same, axes swapped
        (elem(2, {(1, 0): 2, (-1, 0): 2, (0, 1): 3, (0, -1): 1}), (5, 4)),
        (elem(2, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (1, 1): 1}), (4, 6)),
        (DIMER_34, (6, 6)),  # values past 2^62: Python ints
        (DIMER_34, (8, 8)),
        (elem(3, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 1, (0, 0, 1): 3}), (3, 2, 2)),
        (elem(3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), (3, 3, 3)),
        # an int64 scalar in the coset power would overflow here
        (elem(3, {(-1, -1, 0): 3, (-1, -1, -1): 3, (-1, 1, -1): 2}), (5, 3, 3)),
    ]

    @pytest.mark.parametrize("f,moduli", CASES)
    def test_matches_full_quotient_oracle(self, f, moduli):
        q = TorusQuotient(moduli)
        want = oracles.full_quotient_permanent(f, q).linear
        got = torus_permanent(f, q)
        assert type(got.linear) is int and got.linear == want
        approx = torus_permanent(f, q, exact=False)
        assert approx.sign == 1
        assert approx.log == pytest.approx(got.log, rel=1e-12)

    @pytest.mark.parametrize("f,moduli", [c for c in CASES if math.prod(c[1]) <= 16])
    def test_matches_dfs(self, f, moduli):
        want = oracles.backtracking_torus_permanent(dict(f.terms), moduli)
        assert torus_permanent(f, TorusQuotient(moduli)).linear == want

    @given(torus_instance())
    @settings(deadline=None, max_examples=60)
    def test_signed_tori_match_oracle(self, inst):
        f, q = inst
        assert torus_permanent(f, q).linear == oracles.full_quotient_permanent(f, q).linear

    @given(torus_instance(signed=False))
    @settings(deadline=None, max_examples=40)
    def test_float_tori_match_exact_log(self, inst):
        f, q = inst
        want = torus_permanent(f, q)
        got = torus_permanent(f, q, exact=False)
        assert got.sign == 1
        assert got.log == pytest.approx(want.log, rel=1e-12, abs=1e-12)

    def test_float_halves_past_2_512(self, monkeypatch):
        # each half of 1 + u1 + u1^2 + u2 on 700x2 is divided by 2^512, and
        # their products would pass 2^1024 unless the join rescales them
        f = elem(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1})
        q = TorusQuotient((700, 2))
        exps = []
        join = permanent._join

        def spy(snap, other, partner, exact):
            exps.extend((snap[2], other[2]))
            return join(snap, other, partner, exact)

        monkeypatch.setattr(permanent, "_join", spy)
        got = torus_permanent(f, q, exact=False)
        assert min(exps) >= 512
        want = torus_permanent(f, q)
        assert want.linear > 2 ** 1100
        assert got.log == pytest.approx(want.log, rel=1e-12)

    @pytest.mark.parametrize("f,moduli", [
        (elem(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2}), (4, 12)),
        (elem(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 2, (0, -1): 2}), (6, 8)),
        (elem(3, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 1): 4}), (3, 2, 4)),
        (elem(3, {(0, 0, 0): 1, (1, 0, 0): 2, (0, 1, 0): 3, (0, 0, 1): 4}), (2, 4, 3)),
    ])
    def test_transposed_tori_agree(self, f, moduli):
        d = len(moduli)
        q = TorusQuotient(moduli)
        want = torus_permanent(f, q).linear
        assert want == oracles.full_quotient_permanent(f, q).linear
        for axes in itertools.permutations(range(d)):
            g = elem(d, {tuple(p[i] for i in axes): c for p, c in f.terms.items()})
            assert torus_permanent(g, TorusQuotient([moduli[i] for i in axes])).linear == want

    def test_long_axis_is_swept(self):
        # 4x12 sweeps its 12-long axis like 12x4, in 2420 nodes; in the
        # given order it took 7.4 million
        f = ones([[1, 0], [-1, 0], [0, 1], [0, -1]])
        want = torus_permanent(f, TorusQuotient((12, 4))).linear
        for moduli in ((4, 12), (12, 4)):
            assert torus_permanent(f, TorusQuotient(moduli), budget=2420).linear == want
            with pytest.raises(CapacityError):
                torus_permanent(f, TorusQuotient(moduli), budget=2419)

    def test_unit_dimer_10x10_peak_memory(self):
        # the cut before slab 5 holds C(20, 10) = 184 756 states; a row that
        # drops its inputs and sort arrays once read peaks near 57 bytes a
        # state, and the join near 49, where holding them all took 105
        f = ones([[1, 0], [-1, 0], [0, 1], [0, -1]])
        torus_permanent(f, TorusQuotient((4, 4)))
        tracemalloc.start()
        try:
            torus_permanent(f, TorusQuotient((10, 10)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * math.comb(20, 10)

    @pytest.mark.parametrize("bits,obits", [
        (list(range(20)), [7, 3, 0, 19, 12, 5, 1, 18, 9, 2, 4, 17, 6, 11, 8, 16, 10, 15, 13, 14]),
        ([0, 20, 41], [2, 1, 0]),  # a key byte with no live bit between
        ([0, 5, 63, 64, 70, 90], [1, 2, 3, 8, 9, 17]),  # object keys, int64 partners
        ([0, 9, 17, 30, 61], [62, 63, 100, 3, 7]),  # int64 keys, object partners
        ([62, 65, 80, 0, 1], [70, 71, 2, 100, 33]),
        ([], []),  # nothing live: the one empty state joins the other's
    ])
    @pytest.mark.parametrize("exact,scale", [(True, 1), (True, 2 ** 40), (False, 1)])
    @pytest.mark.parametrize("seed", range(3))
    def test_join_matches_per_bit_oracle(self, bits, obits, exact, scale, seed):
        rng = np.random.default_rng(seed)
        n = len(bits)
        perm = [int(p) for p in rng.permutation(n)]
        live = {t: 1 << b for t, b in enumerate(bits)}
        olive = {100 + t: 1 << b for t, b in enumerate(obits)}

        def snapshot(subsets, bitmap):
            # bit i of a subset picks the i-th live target
            keys = sorted({sum(b for i, b in enumerate(bitmap.values()) if s >> i & 1)
                           for s in subsets})
            wide = max(bitmap.values(), default=0) >> 62  # keys as the sweep holds them
            if exact:
                vals = rng.integers(1, 10, len(keys)) * scale
            else:
                vals = rng.random(len(keys)) * 2.0 ** int(rng.integers(-40, 40))
            return (np.array(keys, dtype=object if wide else np.int64), vals,
                    0 if exact else int(rng.integers(0, 1024)), bitmap)

        mine = [int(s) for s in rng.integers(0, 1 << n, 200)]
        # the partner sets of half the complements, and as many others
        full = (1 << n) - 1
        theirs = [sum(1 << perm[i] for i in range(n) if (full & ~s) >> i & 1)
                  for s in mine[::2]] + [int(s) for s in rng.integers(0, 1 << n, 100)]
        snap, other = snapshot(mine, live), snapshot(theirs, olive)
        partner = {t: 100 + perm[t] for t in live}.__getitem__
        got = permanent._join(snap, other, partner, exact)
        assert got == oracles.per_bit_join(snap, other, partner, exact)
        assert got[0] > 0


class TestFloatRange:
    """Float sweeps divide their values by 2^512 past 2^512 and carry the
    exponent, so a value beyond 2^1024 still has a finite log."""

    GOLDEN = elem(1, {(0,): 1, (1,): 1, (2,): 1})

    def test_long_torus_log_is_finite(self):
        q = TorusQuotient((2000,))
        want = torus_permanent(self.GOLDEN, q).log
        assert want > 900
        got = torus_permanent(self.GOLDEN, q, exact=False)
        assert got.sign == 1
        assert got.log == pytest.approx(want, rel=1e-12)

    def test_long_window_log_is_finite(self):
        F = Window.box([0], [3000])
        want = window_permanent(self.GOLDEN, F).log
        assert want > 1400
        assert window_permanent(self.GOLDEN, F, exact=False).log == \
            pytest.approx(want, rel=1e-12)

    def test_component_product_past_2_512(self, monkeypatch):
        # 3 + 3u^2 splits the sites into evens and odds; on g = 1.5 + 1.5u^2
        # each component stays near 2^293, and only their product passes 2^512
        shifts = []
        shrink = permanent._shrink

        def spy(x, exp):
            out = shrink(x, exp)
            shifts.append(out[1] - exp)
            return out

        monkeypatch.setattr(permanent, "_shrink", spy)
        f, F = elem(1, {(0,): 3, (2,): 3}), Window.box([0], [1000])
        got = window_permanent(f, F, exact=False)
        assert shifts.count(512) == 1 and set(shifts) == {0, 512}
        want = window_permanent(f, F).linear
        assert got.sign == 1 and got.log == pytest.approx(math.log(want), rel=0, abs=1e-12)

    def test_matrix_beyond_float_range_raises(self):
        # rows i claim columns i, i+1, i+2: the value grows about 2^0.7 a
        # row, so 1000 rows pass 2^512 inside the float range and 1600 leave it
        M = np.zeros((1600, 1602), dtype=int)
        for i in range(1600):
            M[i, i:i + 3] = 1
        want = matrix_permanent(M[:1000, :1002], backend="sweep", exact=True)
        assert 600 < math.log2(want) < 1000
        assert matrix_permanent(M[:1000, :1002].astype(float), backend="sweep") == \
            pytest.approx(want, rel=1e-12)
        assert math.log2(matrix_permanent(M, backend="sweep", exact=True)) > 1024
        with pytest.raises(OverflowError):
            matrix_permanent(M.astype(float), backend="sweep")


class TestSignedSums:
    def test_all_targets_positive_for_two_term_element(self):
        f = ones([[0], [1]])
        F = Window.of([[0], [1]])
        for target in ([(0,), (1,)], [(1,), (2,)], [(0,), (2,)]):
            assert oracles.signed_target_sum(f, F, Window.of(target)) == pytest.approx(1.0)

    def test_section_matrix_for_two_term_element(self):
        f = ones([[0], [1]])
        F = Window.of([[0], [1]])
        M = ffstar_section_matrix(f, F)
        assert np.allclose(M, [[2, 1], [1, 2]])
        assert finite_det_ffstar(f, F) == pytest.approx(3.0)

    def test_point_mass_section_det(self):
        f = elem(1, {(0,): 1})
        F = Window.box([0], [5])
        assert finite_det_ffstar(f, F) == pytest.approx(1.0)

    @given(weighted_instance(signed=True, max_window=4))
    @settings(deadline=None, max_examples=40)
    def test_section_is_positive_semidefinite(self, inst):
        f, F = inst
        M = ffstar_section_matrix(f, F)
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() >= -1e-9 * max(1.0, abs(eigs).max())


class TestDetIdentity:
    def test_golden_trinomial_window(self):
        f = elem(1, {(2,): 1, (1,): 1, (0,): -1})
        out = det_identity_check(f, Window.of([[0], [1], [2]]))
        assert out["rel_error"] <= 1e-9

    def test_two_by_two_quad(self):
        f = elem(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1, (1, 1): 1})
        out = det_identity_check(f, Window.box([0, 0], [2, 2]))
        assert out["rel_error"] <= 1e-9

    @given(weighted_instance(signed=True, max_window=4))
    @settings(deadline=None, max_examples=60)
    def test_identity_on_random_signed_elements(self, inst):
        f, F = inst
        out = det_identity_check(f, F)
        assert out["rel_error"] <= 1e-9

    @given(weighted_instance(signed=True, max_window=4))
    @settings(deadline=None, max_examples=40)
    def test_det_below_squared_injective_sum_of_abs(self, inst):
        f, F = inst
        det = finite_det_ffstar(f, F)
        upper = window_permanent(f.abs(), F, mode="injective", exact=False)
        bound = math.exp(2 * upper.log) if upper.log > -math.inf else 0.0
        assert det <= bound * (1 + 1e-9) + 1e-9


class TestDoublyStochastic:
    def test_half_half_example(self):
        f = elem(1, {(0,): 0.5, (1,): 0.5})
        C, ground = doubly_stochastic_extension(f, Window.of([[0], [1]]))
        assert ground == ((0,), (1,), (2,))
        assert np.allclose(C, [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]])

    def test_point_mass_gives_identity(self):
        f = elem(1, {(0,): 1.0})
        C, ground = doubly_stochastic_extension(f, Window.box([0], [3]))
        assert np.allclose(C, np.eye(3))

    def test_mass_must_be_one(self):
        f = elem(1, {(0,): 1, (1,): 1})
        with pytest.raises(ValueError):
            doubly_stochastic_extension(f, Window.of([[0], [1]]))

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=30)
    def test_extension_is_doubly_stochastic_and_beats_vdw(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        npts = int(rng.integers(1, 4))
        pts = set()
        while len(pts) < npts:
            pts.add(tuple(int(v) for v in rng.integers(-1, 2, size=d)))
        w = rng.random(npts) + 0.1
        w /= w.sum()
        f = GroupRingElement(d, dict(zip(sorted(pts), w)))
        F = Window.box([0] * d, [2] * d if d == 1 else [2, 1])
        C, ground = doubly_stochastic_extension(f, F)
        n = len(ground)
        assert np.allclose(C.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(C.sum(axis=1), 1.0, atol=1e-12)
        if n <= 10:
            perC = matrix_permanent(C)
            assert math.log(perC) >= vdw_bound(n) - 1e-9

    def test_rows_of_extension_match_bipartite_matrix(self):
        f = elem(1, {(0,): 0.25, (1,): 0.75})
        F = Window.of([[0], [2]])
        C, ground = doubly_stochastic_extension(f, F)
        pos = {t: i for i, t in enumerate(ground)}
        for s in F.points:
            for t in dilate(F, f.support()).points:
                assert C[pos[s], pos[t]] == pytest.approx(f.coef(sub(t, s)))


class TestBounds:
    def test_vdw_value(self):
        assert vdw_bound(3) == pytest.approx(math.log(2 / 9))
        assert vdw_bound(1) == 0.0

    def test_vdw_equality_for_uniform_matrix(self):
        n = 5
        C = np.full((n, n), 1 / n)
        assert math.log(matrix_permanent(C)) == pytest.approx(vdw_bound(n), abs=1e-12)

    def test_bregman_ones_is_tight(self):
        M = np.ones((4, 4))
        assert bregman_bound(M) == pytest.approx(math.log(24))
        assert math.log(matrix_permanent(M)) <= bregman_bound(M) + 1e-12

    def test_bregman_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bregman_bound(np.array([[2.0]]))

    @given(st.integers(0, 10**6))
    @settings(deadline=None, max_examples=40)
    def test_bregman_dominates_permanent(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        M = (rng.random((n, n)) < 0.6).astype(float)
        per = matrix_permanent(M, exact=True)
        if per == 0:
            return
        assert math.log(per) <= bregman_bound(M) + 1e-12


GOLDEN = elem(1, {(0,): 1, (1,): 1, (2,): 1})

# each guard with the error type and message it raises
GUARDS = [
    (lambda: window_permanent(GOLDEN, Window.box([0], [8]), backend="dfs", budget=10),
     CapacityError, "dfs kernel exceeded 10 nodes"),
    (lambda: window_permanent(elem(1, {(0,): 1}), Window.box([0], [25]), backend="ryser"),
     CapacityError, "inclusion-exclusion limited to 24 required columns"),
    (lambda: window_permanent(GOLDEN, Window.box([0], [4]), A=Window.of([[0], [1]])),
     ValueError, "support of f must lie inside A"),
    (lambda: torus_permanent(GOLDEN, TorusQuotient((3, 3))), ValueError,
     "quotient dimension does not match element"),
    (lambda: doubly_stochastic_extension(elem(1, {(0,): 1.5, (1,): -0.5}), Window.box([0], [2])),
     ValueError, "extension needs nonnegative coefficients"),
    (lambda: vdw_bound(0), ValueError, "order must be positive"),
    (lambda: entropy_upper_bound(Window(())), ValueError, "empty displacement set"),
    (lambda: mahler_measure_roots(elem(1, {})), ValueError,
     "mahler measure of the zero element is undefined"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error and str(e.value) == message


# edge cases that return a value rather than raise, with its exact type
EDGES = [
    (lambda: ryser_permanent([], [], exact=True), 1),
    (lambda: ryser_permanent([], []), 1.0),
    (lambda: ryser_permanent([[(0, 2)]], [], exact=True), 0),
    (lambda: ryser_permanent([[(0, 2.0)]], []), 0.0),
    (lambda: list(window_permanents(elem(1, {}), Window.box([0], [3]), [0, 2, 3])),
     [LogValue.from_linear(1), LogValue.from_linear(0), LogValue.from_linear(0)]),
    (lambda: pressure_lower_bound(elem(2, {})), -math.inf),
]


@pytest.mark.parametrize("call, value", EDGES)
def test_edge_value(call, value):
    got = call()
    assert got == value and type(got) is type(value)


class TestLogValue:
    def test_zero_round_trip(self):
        v = LogValue.from_linear(0)
        assert v.sign == 0 and v.log == -math.inf

    @given(st.floats(min_value=-690, max_value=690))
    def test_log_linear_round_trip(self, x):
        v = LogValue.from_log(x)
        assert math.log(v.linear) == pytest.approx(x, rel=1e-12, abs=1e-12)

    def test_huge_integer_log(self):
        v = LogValue.from_linear(10**400)
        assert v.log == pytest.approx(400 * math.log(10))
