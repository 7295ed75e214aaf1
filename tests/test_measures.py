from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import fixtures
from toricfano.linalg import mat_vec, solve_exact
from toricfano.measures import (
    MeasureError,
    boundary_volume,
    codim2_volume,
    coefficient_of_asymmetry,
    count_lattice_points,
    count_lattice_points_bruteforce,
    ehrhart,
    fano_index,
    relative_volume,
    volume_and_barycenter,
)
from toricfano.polytope import (
    DimensionDeficiencyError,
    direct_product,
    dual,
    hull,
    restrict_to_subspace,
)


class TestVolumeBarycenter:
    def test_square(self):
        v, b = volume_and_barycenter(fixtures.cube(2))
        assert v == 4
        assert b == (0, 0)

    def test_projective_plane_dual(self, p2_pair):
        v, b = volume_and_barycenter(p2_pair.p)
        assert v == Fraction(9, 2)
        assert b == (0, 0)

    def test_shifted_simplex(self):
        v, b = volume_and_barycenter(hull([(0, 0), (3, 0), (0, 3)]))
        assert v == Fraction(9, 2)
        assert b == (1, 1)

    def test_equivariance_under_unimodular_maps(self, p2_pair):
        a = ((1, 1), (0, 1))
        moved = hull([mat_vec(a, v) for v in p2_pair.p.vertices])
        v0, b0 = volume_and_barycenter(p2_pair.p)
        v1, b1 = volume_and_barycenter(moved)
        assert v1 == v0
        assert b1 == mat_vec(a, b0)

    def test_cube3(self):
        v, b = volume_and_barycenter(fixtures.cube(3))
        assert v == 8
        assert b == (0, 0, 0)


class TestCounting:
    def test_square(self):
        assert count_lattice_points(fixtures.cube(2), 1) == 9

    def test_projective_plane_dual(self, p2_pair):
        assert count_lattice_points(p2_pair.p, 1) == 10
        assert count_lattice_points(p2_pair.p, 2) == 28

    def test_matches_bruteforce(self, p2_pair, cross3_pair):
        for p in [p2_pair.p, cross3_pair.p, fixtures.cube(3), fixtures.hexagon()]:
            for k in (1, 2, 3):
                assert count_lattice_points(p, k) == count_lattice_points_bruteforce(p, k)

    def test_rejects_nonpositive_dilate(self, p2_pair):
        with pytest.raises(MeasureError):
            count_lattice_points(p2_pair.p, 0)

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n + 1, max_size=n + 4)
        ),
        st.integers(1, 3),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_bruteforce_on_random_polytopes(self, pts, k):
        # arbitrary position: facets with non-unit normals and rhs of either
        # sign give negative residuals and inexact divisions in the slicing
        try:
            p = hull(pts)
        except DimensionDeficiencyError:
            return
        assert count_lattice_points(p, k) == count_lattice_points_bruteforce(p, k)


def _ehrhart_vandermonde(p):
    """Oracle: interpolate the counts at k = 0..n, no reciprocity."""
    n = p.dim
    counts = [1] + [count_lattice_points(p, k) for k in range(1, n + 1)]
    vandermonde = [[Fraction(k) ** i for i in range(n + 1)] for k in range(n + 1)]
    return tuple(solve_exact(vandermonde, [Fraction(c) for c in counts]))


# the smooth Fano summands of the benchmark's small-fano family
SUMMANDS = {
    "seg": [(1,), (-1,)],
    "p2": [(1, 0), (0, 1), (-1, -1)],
    "bl1": [(1, 0), (0, 1), (1, 1), (-1, -1)],
    "bl2": [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)],
    "hex": [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)],
    "p3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    "p4": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
}
PRODUCT_PAIRS = [
    (a, b)
    for a, b in combinations_with_replacement(SUMMANDS, 2)
    if len(SUMMANDS[a][0]) + len(SUMMANDS[b][0]) <= 5
]
REFLEXIVE_FIXTURES = [
    ("segment", lambda: hull([(-1,), (1,)])),
    ("cube2", lambda: fixtures.cube(2)),
    ("p2_dual", lambda: dual(fixtures.simplex_fano(2)).p),
    ("p3_dual", lambda: dual(fixtures.simplex_fano(3)).p),
    *[(f"cross{n}_dual", lambda n=n: dual(fixtures.cross_polytope(n)).p) for n in (2, 3, 4)],
    ("hexagon_dual", lambda: dual(fixtures.hexagon()).p),
    ("cx5_dual", lambda: dual(fixtures.cx5()).p),
]


class TestEhrhartReciprocity:
    @pytest.mark.parametrize("make", [m for _, m in REFLEXIVE_FIXTURES],
                             ids=[name for name, _ in REFLEXIVE_FIXTURES])
    def test_fixture_matches_vandermonde(self, make):
        p = make()
        assert ehrhart(p).coefficients == _ehrhart_vandermonde(p)

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["x".join(p) for p in PRODUCT_PAIRS])
    def test_product_of_duals_matches_vandermonde(self, pair):
        a, b = (dual(hull(SUMMANDS[s])).p for s in pair)
        p = direct_product(a, b)
        assert ehrhart(p).coefficients == _ehrhart_vandermonde(p)

    def test_rejects_non_reflexive(self):
        with pytest.raises(MeasureError):
            ehrhart(hull([(0, 0), (2, 0), (0, 2)]))


class TestEhrhart:
    def test_segment(self):
        e = ehrhart(hull([(-1,), (1,)]))
        assert e.coefficients == (1, 2)

    def test_square(self):
        e = ehrhart(fixtures.cube(2))
        assert e.coefficients == (1, 4, 4)

    def test_projective_plane_dual(self, p2_pair):
        e = ehrhart(p2_pair.p)
        assert e.coefficients == (1, Fraction(9, 2), Fraction(9, 2))

    def test_evaluation_reproduces_counts(self, cx5_pair):
        p = cx5_pair.p
        e = ehrhart(p)
        assert e.coefficients[0] == 1
        for k in (1, 2):
            assert e(k) == count_lattice_points(p, k)

    def test_top_and_second_coefficients(self, p3_pair, hexagon_pair):
        for dp in [p3_pair, hexagon_pair]:
            p = dp.p
            e = ehrhart(p)
            vol, _ = volume_and_barycenter(p)
            assert e.coefficients[p.dim] == vol
            assert e.coefficients[p.dim - 1] == boundary_volume(p) / 2


class TestRelativeVolume:
    def test_lattice_segment(self):
        assert relative_volume([(-1, -1), (2, -1)]) == 3

    def test_single_vertex(self):
        assert relative_volume([(5, 7)]) == 1

    def test_skew_segment(self):
        # from (0,0) to (2,2): two lattice steps along (1,1)
        assert relative_volume([(0, 0), (2, 2)]) == 2

    def test_facet_of_projective_plane_dual(self, p2_pair):
        p = p2_pair.p
        vols = [relative_volume(p.facet_vertices(f)) for f in p.facets]
        assert vols == [3, 3, 3]
        assert ehrhart(p).coefficients[1] == Fraction(1, 2) * sum(vols)

    def test_skew_triangle_in_3d(self):
        # triangle with vertices e1, e2, e3: a unimodular triangle, volume 1/2
        assert relative_volume([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == Fraction(1, 2)


class TestCodim2:
    def test_square(self):
        assert codim2_volume(fixtures.cube(2)) == 4

    def test_cube3(self):
        assert codim2_volume(fixtures.cube(3)) == 24

    def test_projective_plane_dual(self, p2_pair):
        assert codim2_volume(p2_pair.p) == 3


class TestAsymmetry:
    def test_centrally_symmetric(self):
        assert coefficient_of_asymmetry(fixtures.cube(2)) == 1
        assert coefficient_of_asymmetry(fixtures.cross_polytope(3)) == 1

    def test_segment(self):
        assert coefficient_of_asymmetry(hull([(-1,), (2,)])) == 2

    def test_projective_plane_dual(self, p2_pair):
        assert coefficient_of_asymmetry(p2_pair.p) == 2

    def test_at_least_one(self, p2_pair, hexagon_pair):
        for p in [p2_pair.p, hexagon_pair.p, fixtures.cube(3)]:
            ca = coefficient_of_asymmetry(p)
            assert ca >= 1
            centrally_symmetric = set(p.vertices) == {
                tuple(-x for x in v) for v in p.vertices
            }
            assert (ca == 1) == centrally_symmetric

    def test_subspace_slice(self):
        sliced = restrict_to_subspace(fixtures.cross_polytope(2), [(1, 1)])
        assert coefficient_of_asymmetry(sliced) == 1

    def test_origin_not_interior_rejected(self):
        with pytest.raises(MeasureError):
            coefficient_of_asymmetry(hull([(0, 0), (1, 0), (0, 1)]))


class TestFanoIndex:
    def test_projective_spaces(self):
        for n in (1, 2, 3):
            dp = dual(fixtures.simplex_fano(n))
            assert fano_index(dp.p) == n + 1

    def test_square(self):
        assert fano_index(fixtures.cube(2)) == 2

    def test_base_vertex_independence(self, p2_pair, hexagon_pair):
        from math import gcd

        for p in [p2_pair.p, hexagon_pair.p]:
            values = set()
            for v in p.vertices:
                g = 0
                for w in p.vertices:
                    for x, y in zip(w, v):
                        g = gcd(g, abs(x - y))
                values.add(g)
            assert values == {fano_index(p)}
