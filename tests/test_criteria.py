from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_measures import PRODUCT_PAIRS, SUMMANDS
from test_symmetry import PAIRS, _elementary_unimodular, closure, groups_of, smallest_cyclic_subgroup
from toricfano import fixtures
from toricfano.criteria import (
    alpha_invariant,
    full_verdict,
    lct,
    max_pairing,
    tian_condition,
)
from toricfano.linalg import dot, mat_vec
from toricfano.measures import coefficient_of_asymmetry
from toricfano.polytope import dual, free_sum, hull, restrict_to_subspace
from toricfano.symmetry import automorphism_group, fixed_space, trivial_group


class TestKETest:
    def test_symmetric_examples_pass(self, p2_pair, cross3_pair, hexagon_pair):
        for dp in [p2_pair, cross3_pair, hexagon_pair]:
            assert full_verdict(dp).is_ke

    def test_blowup_of_plane_fails(self):
        # del Pezzo surface of degree 8: not Einstein, barycenter nonzero
        dp = dual(hull([(1, 0), (0, 1), (-1, -1), (1, 1)]))
        assert not full_verdict(dp).is_ke

    def test_counterexample_fixture_passes(self, cx5_pair):
        assert full_verdict(cx5_pair).is_ke


class TestPairingAndLct:
    def test_trivial_group_equals_global_lct(self, p2_pair):
        g = trivial_group(2)
        # max <w, v> over all of P and Q for the dual of the plane is 2
        assert max_pairing(p2_pair, g) == 2
        assert lct(p2_pair, g) == Fraction(1, 3)

    def test_symmetric_pair_gives_one(self, cross2_pair):
        gp = automorphism_group(cross2_pair)[1]
        assert lct(cross2_pair, gp) == 1
        assert max_pairing(cross2_pair, gp) == 0

    def test_trivial_group_on_cube(self):
        dp = dual(fixtures.cross_polytope(2))  # P is the square
        g = trivial_group(2)
        assert max_pairing(dp, g) == 1
        assert lct(dp, g) == Fraction(1, 2)


class TestAlphaTian:
    def test_symmetric_alpha_is_one(self, p2_pair, hexagon_pair):
        for dp in [p2_pair, hexagon_pair]:
            assert alpha_invariant(dp) == 1
            assert tian_condition(dp, automorphism_group(dp)[1])

    def test_headline_nonsymmetric_values(self, q1_pair, q1_groups):
        assert alpha_invariant(q1_pair) == Fraction(1, 2)
        assert lct(q1_pair, g=q1_groups[1]) == Fraction(1, 2)
        assert not tian_condition(q1_pair, g=q1_groups[1])


class TestFullVerdict:
    def test_plane(self, p2_pair):
        v = full_verdict(p2_pair)
        assert v.is_ke and v.is_symmetric and v.tian_holds
        assert v.barycenter == (0, 0)
        assert v.fixed_dim == 0
        assert v.alpha == 1
        assert v.lct == 1

    def test_blowup(self):
        dp = dual(hull([(1, 0), (0, 1), (-1, -1), (1, 1)]))
        v = full_verdict(dp)
        assert not v.is_ke
        assert not v.is_symmetric
        assert v.fixed_dim == 1
        assert not v.tian_holds
        assert v.alpha < 1

    def test_headline_example(self, q1_pair, q1_groups):
        v = full_verdict(q1_pair, groups=q1_groups)
        assert v.is_ke
        assert not v.is_symmetric
        assert v.fixed_dim == 1
        assert v.alpha == Fraction(1, 2)
        assert v.lct == Fraction(1, 2)
        assert not v.tian_holds


# Differential oracle: the slice route the verdict used to take.  P cut by
# Fix(g) is built facet subset by facet subset, and the threshold is
# 1/(1 + its coefficient of asymmetry).

def slice_threshold(dp, g):
    fs = fixed_space(g)
    if fs.dim == 0:
        return Fraction(1)
    sliced = dp.p if fs.dim == dp.p.dim else restrict_to_subspace(dp.p, fs.basis)
    return 1 / (1 + coefficient_of_asymmetry(sliced))


def free_sum_of(names):
    parts = [hull(SUMMANDS[s]) for s in names]
    return parts[0] if len(parts) == 1 else free_sum(*parts)


def assert_matches_slice_oracle(dp, groups):
    gp = groups[1]
    v = full_verdict(dp, groups=groups)
    assert v.alpha == v.lct == slice_threshold(dp, gp)
    # fixed_dim_dual is read off the Fano-side fixed space by the rank identity
    assert v.fixed_dim_dual == fixed_space(gp).dim
    for g in (trivial_group(dp.p.dim), smallest_cyclic_subgroup(gp)):
        assert lct(dp, g=g) == slice_threshold(dp, g)


class TestSliceOracle:
    @pytest.mark.parametrize("name", PAIRS + ["q1_pair"])
    def test_fixture(self, request, name):
        assert_matches_slice_oracle(request.getfixturevalue(name), groups_of(request, name))

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["+".join(p) for p in PRODUCT_PAIRS])
    def test_free_sum(self, pair):
        dp = dual(free_sum_of(pair))
        assert_matches_slice_oracle(dp, automorphism_group(dp))

    def test_fixed_dimensions_covered(self, p2_pair, q1_pair, q1_groups):
        # the oracle runs on fixed spaces {0}, a line, a plane and all of R^n
        bl = dual(free_sum_of(("bl1", "bl2")))
        assert full_verdict(p2_pair).fixed_dim_dual == 0
        assert full_verdict(q1_pair, groups=q1_groups).fixed_dim_dual == 1
        assert full_verdict(bl).fixed_dim_dual == 2
        assert fixed_space(trivial_group(bl.p.dim)).dim == bl.p.dim

    @given(
        st.sampled_from(PRODUCT_PAIRS + [(s,) for s in SUMMANDS]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_unimodular_image(self, names, rng):
        q = free_sum_of(names)
        u = _elementary_unimodular(q.dim, rng)
        dp, dpu = dual(q), dual(hull([mat_vec(u, v) for v in q.vertices]))
        fields = ("alpha", "lct", "fixed_dim", "fixed_dim_dual", "tian_holds")
        v, vu = full_verdict(dp), full_verdict(dpu)
        assert [getattr(vu, f) for f in fields] == [getattr(v, f) for f in fields]
        assert vu.alpha == slice_threshold(dpu, automorphism_group(dpu)[1])


# Differential oracle: the group-sum route max_pairing used to take.  The
# group average is S/|G|, S the entrywise sum of every element, so the
# pairing is the max of <S w, v> over |G|.

def _max_pairing_by_sum(dp, g):
    elems = closure(g)
    s = [[sum(col) for col in zip(*rows)] for rows in zip(*elems)]
    averages = {mat_vec(s, w) for w in dp.p.vertices}
    return Fraction(max(dot(w, v) for w in averages for v in dp.q.vertices), len(elems))


def assert_matches_sum_oracle(dp, gp):
    for g in (gp, smallest_cyclic_subgroup(gp)):
        assert max_pairing(dp, g) == _max_pairing_by_sum(dp, g)


class TestMaxPairingBySum:
    @pytest.mark.parametrize("name", PAIRS + ["q1_pair"])
    def test_fixture(self, request, name):
        assert_matches_sum_oracle(request.getfixturevalue(name), groups_of(request, name)[1])

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["+".join(p) for p in PRODUCT_PAIRS])
    def test_free_sum(self, pair):
        dp = dual(free_sum_of(pair))
        assert_matches_sum_oracle(dp, automorphism_group(dp)[1])
