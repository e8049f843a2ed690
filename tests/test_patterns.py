import itertools

import pytest
from hypothesis import given, settings, strategies as st

from latperm.groupring import CapacityError, Window, dilate, interior
from latperm.patterns import (
    Pattern,
    enumerate_injective,
    enumerate_with_image,
    pattern_sign,
)

import oracles


def disp_tuples(patterns):
    return [p.displacements for p in patterns]


@st.composite
def small_instance(draw, dim=None):
    d = dim if dim is not None else draw(st.integers(1, 2))
    a = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                      min_size=1, max_size=3, unique=True))
    f = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                      min_size=1, max_size=4, unique=True))
    return Window.of(a), Window.of(f)


class TestEnumeration:
    def test_injective_interval_example(self):
        A = Window.of([[0], [1]])
        F = Window.of([[0], [1]])
        got = disp_tuples(enumerate_injective(A, F))
        assert got == [((0,), (0,)), ((0,), (1,)), ((1,), (1,))]

    def test_with_image_picks_single_patterns(self):
        A = Window.of([[0], [1]])
        F = Window.of([[0], [1]])
        cases = {
            ((0,), (1,)): ((0,), (0,)),
            ((1,), (2,)): ((1,), (1,)),
            ((0,), (2,)): ((0,), (1,)),
        }
        for target, expected in cases.items():
            got = disp_tuples(enumerate_with_image(A, F, Window.of(target)))
            assert got == [expected]

    def test_with_image_requires_matching_cardinality(self):
        A = Window.of([[0], [1]])
        F = Window.of([[0], [1]])
        with pytest.raises(ValueError):
            list(enumerate_with_image(A, F, Window.of([(0,)])))

    def test_budget_exhaustion_raises(self):
        A = Window.of([[0], [1], [2]])
        F = Window.box([0], [8])
        with pytest.raises(CapacityError):
            list(enumerate_injective(A, F, budget=10))

    @given(small_instance())
    @settings(deadline=None, max_examples=60)
    def test_injective_matches_naive_filter(self, inst):
        A, F = inst
        got = disp_tuples(enumerate_injective(A, F))
        want = oracles.naive_patterns(A.points, F.points, mode="injective")
        assert got == want

    @given(small_instance())
    @settings(deadline=None, max_examples=40)
    def test_admissible_within_injective(self, inst):
        A, F = inst
        inj = set(disp_tuples(enumerate_injective(A, F)))
        req = interior(F, A).points
        adm = set(oracles.naive_patterns(A.points, F.points, mode="admissible", required=req))
        assert adm <= inj
        if len(req) == 0:
            assert adm == inj

    @given(small_instance(dim=1), st.tuples(st.integers(-3, 3)))
    @settings(deadline=None, max_examples=40)
    def test_translation_equivariance(self, inst, shift):
        A, F = inst
        base = disp_tuples(enumerate_injective(A, F))
        moved = disp_tuples(enumerate_injective(A, F.translate(shift)))
        assert base == moved

    @given(small_instance())
    @settings(deadline=None, max_examples=30)
    def test_images_partition_injective_patterns(self, inst):
        A, F = inst
        inj = disp_tuples(enumerate_injective(A, F))
        by_image = []
        for combo in itertools.combinations(dilate(F, A).points, len(F)):
            target = Window(combo)
            by_image.extend(disp_tuples(enumerate_with_image(A, F, target)))
        assert sorted(by_image) == sorted(inj)


class TestSign:
    def test_identity_pattern_is_even(self):
        A = Window.of([[0]])
        F = Window.of([[0], [1], [2]])
        (p,) = enumerate_injective(A, F)
        assert pattern_sign(p) == 1

    def test_swap_pattern_is_odd(self):
        p = Pattern(sites=((0,), (1,)), displacements=((1,), (-1,)))
        assert p.image() == ((1,), (0,))
        assert pattern_sign(p) == -1

    def test_three_cycle_is_even(self):
        p = Pattern(sites=((0,), (1,), (2,)), displacements=((1,), (1,), (-2,)))
        assert p.image() == ((1,), (2,), (0,))
        assert pattern_sign(p) == 1

    @given(small_instance())
    @settings(deadline=None, max_examples=40)
    def test_sign_matches_inversion_oracle(self, inst):
        A, F = inst
        for p in enumerate_injective(A, F):
            image = p.image()
            rank = {t: i for i, t in enumerate(sorted(image))}
            perm = tuple(rank[t] for t in image)
            assert pattern_sign(p) == oracles.permutation_sign(perm)
            assert pattern_sign(p) in (-1, 1)

    @given(small_instance())
    @settings(deadline=None, max_examples=30)
    def test_sign_flips_under_swapped_order_isomorphism(self, inst):
        A, F = inst
        for p in enumerate_injective(A, F):
            if len(F) < 2:
                continue
            image = p.image()
            rank = {t: i for i, t in enumerate(sorted(image))}
            # swap the two smallest image points in the bijection back to F
            swapped = dict(rank)
            t0, t1 = sorted(image)[0], sorted(image)[1]
            swapped[t0], swapped[t1] = swapped[t1], swapped[t0]
            perm = tuple(swapped[t] for t in image)
            assert oracles.permutation_sign(perm) == -pattern_sign(p)
