from fractions import Fraction

from toricfano import fixtures
from toricfano.criteria import (
    alpha_invariant,
    full_verdict,
    lct,
    max_pairing,
    tian_condition,
)
from toricfano.polytope import dual, hull
from toricfano.symmetry import automorphism_group, trivial_group


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
        g = trivial_group(2, p2_pair.p)
        # max <w, v> over all of P and Q for the dual of the plane is 2
        assert max_pairing(p2_pair, g) == 2
        assert lct(p2_pair, g) == Fraction(1, 3)

    def test_symmetric_pair_gives_one(self, cross2_pair):
        assert lct(cross2_pair) == 1
        assert max_pairing(cross2_pair, automorphism_group(cross2_pair)[1]) == 0

    def test_trivial_group_on_cube(self):
        dp = dual(fixtures.cross_polytope(2))  # P is the square
        g = trivial_group(2, dp.p)
        assert max_pairing(dp, g) == 1
        assert lct(dp, g) == Fraction(1, 2)


class TestAlphaTian:
    def test_symmetric_alpha_is_one(self, p2_pair, hexagon_pair):
        for dp in [p2_pair, hexagon_pair]:
            assert alpha_invariant(dp) == 1
            assert tian_condition(dp)

    def test_headline_nonsymmetric_values(self, q1_pair, q1_groups):
        assert alpha_invariant(q1_pair, groups=q1_groups) == Fraction(1, 2)
        assert lct(q1_pair, groups=q1_groups) == Fraction(1, 2)
        assert not tian_condition(q1_pair, groups=q1_groups)


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
