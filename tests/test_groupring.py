import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from latperm.groupring import (
    GroupRingElement,
    TorusQuotient,
    Window,
    dilate,
    interior,
    project,
    separated_on_quotient,
)

import oracles


def elem(dim, terms):
    return GroupRingElement(dim, terms)


@st.composite
def elements(draw, dim=None, nonneg=False, max_terms=4):
    d = dim if dim is not None else draw(st.integers(1, 2))
    n = draw(st.integers(1, max_terms))
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * d),
            min_size=n, max_size=n, unique=True,
        )
    )
    lo = 1 if nonneg else -3
    coefs = draw(st.lists(st.integers(lo, 3).filter(lambda c: c != 0),
                          min_size=n, max_size=n))
    return GroupRingElement(d, dict(zip(pts, coefs)))


@st.composite
def windows(draw, dim=None, max_size=6):
    d = dim if dim is not None else draw(st.integers(1, 2))
    pts = draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * d),
            min_size=1, max_size=max_size, unique=True,
        )
    )
    return Window.of(pts)


class TestWindow:
    def test_points_are_sorted_lex(self):
        w = Window.of([[2], [0], [1]])
        assert w.points == ((0,), (1,), (2,))

    def test_box_2d(self):
        w = Window.box([0, 0], [2, 2])
        assert w.points == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            Window.of([[1], [1]])

    def test_json_round_trip_box_and_points(self):
        w = Window.box([1, -1], [2, 3])
        again = Window.from_json(json.loads(json.dumps(w.to_json())))
        assert again == w
        assert Window.from_json({"box": {"origin": [1, -1], "lengths": [2, 3]}}) == w

    @given(windows(), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    def test_translate_then_back(self, w, s):
        if w.dim != 2:
            s = s[: w.dim]
        assert w.translate(s).translate(tuple(-c for c in s)) == w


class TestElementOps:
    def test_adjoint_example(self):
        f = elem(1, {(0,): 1, (1,): 2})
        assert f.adjoint() == elem(1, {(0,): 1, (-1,): 2})

    def test_convolve_one_plus_u_with_adjoint(self):
        f = elem(1, {(0,): 1, (1,): 1})
        assert f.convolve(f.adjoint()) == elem(1, {(-1,): 1, (0,): 2, (1,): 1})

    def test_pointwise_keeps_common_support(self):
        f = elem(1, {(0,): 2, (1,): 3})
        g = elem(1, {(1,): 5, (2,): 7})
        assert f.pointwise(g) == elem(1, {(1,): 15})

    def test_zero_terms_are_dropped(self):
        f = elem(1, {(0,): 1, (1,): 0})
        assert f.support().points == ((0,),)

    def test_abs_and_scale(self):
        f = elem(1, {(0,): -2, (1,): 3})
        assert f.abs() == elem(1, {(0,): 2, (1,): 3})
        assert f.scale(-1) == elem(1, {(0,): 2, (1,): -3})

    def test_norms_and_min_positive(self):
        f = elem(1, {(0,): -2, (1,): 3, (2,): 1})
        assert f.norm1() == 6.0
        assert f.min_positive() == 1.0

    def test_norm1_is_exact_for_integers(self):
        big = 10 ** 400
        assert elem(1, {(0,): big, (1,): -big}).norm1() == 2 * big
        assert type(elem(1, {(0,): 2, (1,): 3}).norm1()) is int
        # an int sum past the float range cannot take a float term; the
        # float consumers take unit_scale() instead, which needs no sum
        with pytest.raises(OverflowError):
            elem(1, {(0,): big, (1,): 0.5}).norm1()

    def test_unit_scale_exponent_is_exact(self):
        g, k = elem(1, {(0,): 3, (1,): 0.5}).unit_scale()
        assert (g.terms, k) == ({(0,): 1.5, (1,): 0.25}, 1)
        g, k = elem(1, {(0,): 10 ** 320, (1,): -1}).unit_scale()
        assert k == 1063 and 1 <= g.coef((0,)) < 2 and g.coef((1,)) == -2.0 ** -1063
        g, k = elem(1, {(0,): 5e-324, (2,): 1e-300}).unit_scale()
        assert k == -997 and g.coef((0,)) == math.ldexp(5e-324, 997)
        assert elem(1, {}).unit_scale()[1] == 0

    def test_unit_scale_keeps_underflowed_terms(self):
        # 3 * 2^-1100 rounds to 0.0, but the support still holds u
        g, k = elem(1, {(0,): 2 ** 1100, (1,): 3}).unit_scale()
        assert (g.terms, k) == ({(0,): 1.0, (1,): 0.0}, 1100)
        assert g.support().points == ((0,), (1,))

    # no term of g is subnormal, so g is f scaled exactly
    @given(st.lists(st.floats(1e-150, 1e150) | st.integers(1, 10 ** 30), min_size=1,
                    max_size=5))
    @example([2 ** 54 - 1])  # rounds up to 2^54, so k is 54
    def test_unit_scale_round_trip(self, coefs):
        f = elem(1, {(i,): c for i, c in enumerate(coefs)})
        g, k = f.unit_scale()
        assert 1 <= max(abs(c) for c in g.terms.values()) < 2
        for p, c in f.terms.items():
            # a float past 2^53 in g is the int rounded once
            assert math.ldexp(g.terms[p], k) == (c if isinstance(c, float) else float(c))

    def test_json_round_trip(self):
        f = elem(2, {(0, 0): 1, (1, 0): -2.5})
        again = GroupRingElement.from_json(json.loads(json.dumps(f.to_json())))
        assert again == f

    @given(elements())
    def test_adjoint_involution(self, f):
        assert f.adjoint().adjoint() == f

    @given(elements(dim=1, max_terms=3), elements(dim=1, max_terms=3),
           elements(dim=1, max_terms=3))
    @settings(deadline=None)
    def test_convolve_associative_on_integers(self, f, g, h):
        assert f.convolve(g).convolve(h) == f.convolve(g.convolve(h))

    @given(elements(dim=2, max_terms=3), elements(dim=2, max_terms=3),
           elements(dim=2, max_terms=3))
    @settings(deadline=None)
    def test_convolve_distributes_over_sum(self, f, g, h):
        assert f.convolve(g + h) == f.convolve(g) + f.convolve(h)

    @given(elements(), st.integers(-2, 2))
    def test_translate_matches_delta_convolution(self, f, c):
        s = (c,) * f.dim
        shifted = f.convolve(GroupRingElement(f.dim, {s: 1}))
        assert f.translate(s) == shifted


class TestWindowCalculus:
    def test_dilate_example(self):
        F = Window.of([[0], [1]])
        A = Window.of([[0], [2]])
        assert dilate(F, A).points == ((0,), (1,), (2,), (3,))

    def test_interior_of_interval(self):
        F = Window.box([0], [4])
        A = Window.of([[0], [1]])
        assert interior(F, A).points == ((1,), (2,), (3,))

    def test_interior_can_be_empty(self):
        F = Window.of([[0]])
        A = Window.of([[0], [1]])
        assert len(interior(F, A)) == 0

    def test_interior_2d_box(self):
        F = Window.box([0, 0], [3, 3])
        A = Window.of([[0, 0], [1, 0], [0, 1]])
        got = set(interior(F, A).points)
        assert got == oracles.interior_scan(F.points, A.points)

    @given(windows(), windows())
    @settings(deadline=None)
    def test_interior_matches_scan_oracle(self, F, A):
        if F.dim != A.dim:
            return
        assert set(interior(F, A).points) == oracles.interior_scan(F.points, A.points)

    @given(windows(dim=1, max_size=5), windows(dim=1, max_size=3))
    def test_interior_inside_window_when_zero_in_A(self, F, A):
        A0 = Window.of(set(A.points) | {(0,)})
        assert set(interior(F, A0).points) <= F.point_set

    @given(windows(dim=2, max_size=5), windows(dim=2, max_size=3))
    @settings(deadline=None)
    def test_dilated_interior_stays_in_grown_window(self, F, A):
        A0 = Window.of(set(A.points) | {(0, 0)})
        inner = interior(F, A0)
        if len(inner) == 0:
            return
        grown = set(F.points) | set(dilate(F, A0).points)
        assert set(dilate(inner, A0).points) <= grown

    def test_folner_defect_of_boxes(self):
        K = Window.of([[0], [1]])
        for n in (2, 5, 10):
            assert oracles.folner_defect(Window.box([0], [n]), K) == pytest.approx(1 / n)
        K2 = Window.of([[0, 0], [1, 0]])
        assert oracles.folner_defect(Window.box([0, 0], [4, 4]), K2) == pytest.approx(1 / 4)


class TestQuotient:
    def test_project_collapses_fourth_power(self):
        f = elem(1, {(0,): 1, (4,): 1})
        assert project(f, TorusQuotient((4,))) == {(0,): 2}

    def test_project_keeps_distinct_classes(self):
        f = elem(2, {(0, 0): 1, (1, 2): 3, (5, 2): -1})
        got = project(f, TorusQuotient((4, 3)))
        assert got == {(0, 0): 1, (1, 2): 2}

    def test_separation_flags_offending_pair(self):
        A = Window.of([[-1], [0], [1]])
        ok, pair = separated_on_quotient(A, TorusQuotient((2,)))
        assert not ok and pair == ((-1,), (1,))
        ok, pair = separated_on_quotient(A, TorusQuotient((3,)))
        assert ok and pair is None

    @given(elements(dim=1, max_terms=4), elements(dim=1, max_terms=4),
           st.integers(2, 5))
    @settings(deadline=None)
    def test_project_is_ring_hom_for_convolution(self, f, g, n):
        q = TorusQuotient((n,))
        lhs = project(f.convolve(g), q)
        rhs = oracles.quotient_convolve(project(f, q), project(g, q), (n,))
        assert lhs == rhs
