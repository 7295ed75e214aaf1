from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import fixtures, measures
from toricfano.linalg import det, dot, identity, mat_vec, solve_exact, vec_sub
from toricfano.measures import (
    EhrhartPolynomial,
    LatticeInvariantError,
    MeasureError,
    boundary_volume,
    codim2_volume,
    coefficient_of_asymmetry,
    cone_measures,
    count_lattice_points,
    count_lattice_points_bruteforce,
    ehrhart,
    fano_index,
    relative_volume,
    vertex_cones,
    vertex_facets,
    volume_and_barycenter,
)
from toricfano.polytope import (
    DimensionDeficiencyError,
    Facet,
    LatticePolytope,
    PolytopeError,
    dual,
    faces_codim2,
    hull,
    restrict_to_subspace,
)


def _face_children(p):
    """Face poset of the boundary, top-down.

    Returns (children, dims): ``children`` maps a face's vertex index set to
    the list of its facets (one dimension lower); ``dims`` maps each face to
    its dimension.  Faces are the intersections of facet vertex sets, so no
    rank computations are needed below the top level.
    """
    facet_sets = [f.vertex_indices for f in p.facets]
    children = {}
    dims = {}
    frontier = list(dict.fromkeys(facet_sets))
    for s in frontier:
        dims[s] = p.dim - 1
    while frontier:
        nxt = []
        for s in frontier:
            if s in children:
                continue
            cands = set()
            for fs in facet_sets:
                inter = s & fs
                if inter and inter != s:
                    cands.add(inter)
            maximal = [c for c in cands if not any(c < other for other in cands)]
            children[s] = maximal
            for c in maximal:
                if c not in dims:
                    dims[c] = dims[s] - 1
                    nxt.append(c)
        frontier = nxt
    for s in dims:
        children.setdefault(s, [])
    return children, dims


def _pull(s, children, dims, cache):
    """Pulling triangulation of face ``s`` from its smallest vertex index."""
    if s in cache:
        return cache[s]
    if len(s) == dims[s] + 1:
        result = [tuple(sorted(s))]
    else:
        w = min(s)
        result = []
        for c in children[s]:
            if w not in c:
                for t in _pull(c, children, dims, cache):
                    result.append((w,) + t)
    cache[s] = result
    return result


def _pulling_triangulation(p):
    """Boundary triangulation: each facet pulled from its first vertex."""
    children, dims = _face_children(p)
    cache = {}
    simplices = []
    for f in p.facets:
        simplices.extend(_pull(f.vertex_indices, children, dims, cache))
    return simplices


def _volume_and_barycenter_triangulated(p):
    """Oracle: cone the boundary triangulation from the first vertex.

    One determinant and one centroid per simplex; works on any polytope.
    """
    n = p.dim
    apex = p.vertices[0]
    vol = Fraction(0)
    weighted = [Fraction(0)] * n
    for t in _pulling_triangulation(p):
        vs = [p.vertices[i] for i in t]
        if apex in vs:
            continue
        d = det([list(vec_sub(v, apex)) for v in vs])
        if d == 0:
            continue
        w = Fraction(abs(d), factorial(n))
        vol += w
        for j in range(n):
            weighted[j] += w * Fraction(apex[j] + sum(v[j] for v in vs), n + 1)
    return vol, tuple(c / vol for c in weighted)


def _codim2_volume_by_ridges(p):
    """Oracle: every ridge re-hulled and measured in its own lattice."""
    return sum(
        (relative_volume([p.vertices[i] for i in sorted(s)]) for s, _ in faces_codim2(p)),
        Fraction(0),
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

    # the paper's dim 7 and 8 examples: their duals' projections have facets of tens of points;
    # the Todd pass over the vertex cones gives the Ehrhart polynomial independently, and L(1) is its sum
    @pytest.mark.parametrize("make, points", [(fixtures.q1, 2257), (fixtures.q2, 6771)], ids=["q1", "q2"])
    def test_paper_duals_match_ehrhart(self, make, points):
        p = dual(make()).p
        assert count_lattice_points(p, 1) == sum(ehrhart(p).coefficients) == points

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

    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=5, max_size=9))
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce_in_dimension_4(self, pts):
        try:
            p = hull(pts)
        except DimensionDeficiencyError:
            return
        assert count_lattice_points(p) == count_lattice_points_bruteforce(p)

    def test_many_facets_in_dimension_4(self):
        # 9 vertices and 21 facets: pairing every lower bound with every upper
        # bound, redundant rows kept, grows each eliminated system far past
        # the projection's own facets
        p = hull([(-2, -1, 0, -3), (0, -1, -2, -2), (1, -3, 0, -2), (1, 2, -2, -1), (2, -3, 3, 0),
                  (2, -2, 2, -3), (3, -2, 1, -3), (3, -1, 2, 0), (3, 3, -1, 3)])
        assert (p.n_vertices, len(p.facets)) == (9, 21)
        assert count_lattice_points(p) == count_lattice_points_bruteforce(p) == 43


def direct_product(p1: LatticePolytope, p2: LatticePolytope) -> LatticePolytope:
    """Cartesian product in block coordinates; F x P2 holds (v_i, w_j) iff F holds v_i."""
    if not (p1.contains_origin_interior() and p2.contains_origin_interior()):
        raise PolytopeError("product needs the origin interior on both sides")
    z1 = (0,) * p1.dim
    z2 = (0,) * p2.dim
    m = p2.n_vertices
    pairs = range(p1.n_vertices * m)    # pair k is (v_{k // m}, w_{k % m}): lexicographic
    facets = [Facet(f.normal + z2, f.rhs, frozenset(k for k in pairs if k // m in f.vertex_indices))
              for f in p1.facets]
    facets += [Facet(z1 + f.normal, f.rhs, frozenset(k for k in pairs if k % m in f.vertex_indices))
               for f in p2.facets]
    facets.sort(key=lambda f: (f.normal, f.rhs))
    verts = tuple(v + w for v in p1.vertices for w in p2.vertices)
    return LatticePolytope(p1.dim + p2.dim, verts, tuple(facets))


def _ehrhart_vandermonde(p):
    """Oracle: interpolate the counts at k = 0..n, no reciprocity."""
    n = p.dim
    counts = [1] + [count_lattice_points(p, k) for k in range(1, n + 1)]
    vandermonde = [[Fraction(k) ** i for i in range(n + 1)] for k in range(n + 1)]
    return tuple(solve_exact(vandermonde, [Fraction(c) for c in counts]))


def _ehrhart_reciprocity(p):
    """Oracle for reflexive P from floor(n/2) dilates.

    Hibi's form of Ehrhart-Macdonald reciprocity, L(-k) = (-1)^n L(k-1) for
    reflexive P, gives the values at k = -1..-(n//2 + 1) from L(0) = 1 and
    the counts at k = 1..n//2; the n + 1 values of smallest |k| fix the
    polynomial by exact interpolation.
    """
    n = p.dim
    values = {0: 1}
    for k in range(1, n // 2 + 1):
        values[k] = count_lattice_points(p, k)
    for k in range(1, n // 2 + 2):
        values[-k] = (-1) ** n * values[k - 1]
    ks = sorted(values, key=abs)[: n + 1]
    vandermonde = [[k**i for i in range(n + 1)] for k in ks]
    return tuple(solve_exact(vandermonde, [values[k] for k in ks]))


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


def _free_sum_rows(names):
    """Vertex rows of the free sum of the named summands, in block coordinates."""
    dims = [len(SUMMANDS[s][0]) for s in names]
    rows = []
    for i, s in enumerate(names):
        before, after = sum(dims[:i]), sum(dims[i + 1:])
        rows += [(0,) * before + r + (0,) * after for r in SUMMANDS[s]]
    return rows


# Fano-side vertex rows whose duals are smooth: cx5 and the summand free sums
GL_SOURCES = [("cx5", fixtures.CX5_VERTICES)] + [("x".join(pair), _free_sum_rows(pair)) for pair in PRODUCT_PAIRS]


def _random_unimodular(n, rng):
    """A product of random elementary, sign and swap moves: a matrix in GL(n, Z)."""
    u = [list(row) for row in identity(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            k = rng.choice((-2, -1, 1, 2))
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
        else:
            u[i] = [-x for x in u[i]]
        if rng.random() < 0.5:
            u[i], u[j] = u[j], u[i]
    return u


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
        assert ehrhart(p).coefficients == _ehrhart_vandermonde(p) == _ehrhart_reciprocity(p)

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["x".join(p) for p in PRODUCT_PAIRS])
    def test_product_of_duals_matches_vandermonde(self, pair):
        a, b = (dual(hull(SUMMANDS[s])).p for s in pair)
        p = direct_product(a, b)
        assert ehrhart(p).coefficients == _ehrhart_vandermonde(p) == _ehrhart_reciprocity(p)

    def test_rejects_non_reflexive(self):
        with pytest.raises(MeasureError):
            ehrhart(hull([(0, 0), (2, 0), (0, 2)]))

    def test_rejects_reflexive_outside_the_todd_domain(self):
        # the octahedron has four facets at each vertex; the fan polytope of
        # P^2 is reflexive, but its vertex cones have determinant 3
        with pytest.raises(MeasureError, match="lies on 4 facets"):
            ehrhart(fixtures.cross_polytope(3))
        with pytest.raises(MeasureError, match="determinant -3"):
            ehrhart(hull([(1, 0), (0, 1), (-1, -1)]))
        # the counting oracle still covers both
        assert _ehrhart_reciprocity(fixtures.cross_polytope(3)) == (1, Fraction(8, 3), 2, Fraction(4, 3))
        assert _ehrhart_reciprocity(hull([(1, 0), (0, 1), (-1, -1)])) == (1, Fraction(3, 2), Fraction(3, 2))

    @given(
        st.sampled_from(GL_SOURCES),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_unimodular_image_with_shuffled_rows(self, source, rng):
        # Q's rows moved by U in GL(n, Z) and shuffled: P* moves by U^-T, and
        # the Ehrhart polynomial is a lattice invariant
        rows = source[1]
        u = _random_unimodular(len(rows[0]), rng)
        moved = [mat_vec(u, r) for r in rows]
        rng.shuffle(moved)
        assert ehrhart(dual(hull(moved)).p) == ehrhart(dual(hull(rows)).p)


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
            value = sum(c * k**i for i, c in enumerate(e.coefficients))
            assert value == count_lattice_points(p, k)

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

    @pytest.mark.parametrize("x", [Fraction(7, 2), 2.9], ids=["fraction", "float"])
    def test_non_integer_coordinate_rejected(self, x):
        with pytest.raises(TypeError):
            relative_volume([(x, -1), (-1, -1)])

    def test_vertex_off_a_coarser_lattice_breaks_the_invariant(self, monkeypatch):
        # a doubled basis spans a sublattice that misses the edge's own step
        kernel = measures.saturated_kernel
        monkeypatch.setattr(measures, "saturated_kernel", lambda m: [tuple(2 * x for x in v) for v in kernel(m)])
        with pytest.raises(LatticeInvariantError, match="not in the induced lattice"):
            relative_volume([(0, 0, 0), (1, 0, 0)])
        assert issubclass(LatticeInvariantError, MeasureError)


class TestCodim2:
    def test_square(self):
        assert codim2_volume(fixtures.cube(2)) == 4

    def test_cube3(self):
        assert codim2_volume(fixtures.cube(3)) == 24

    def test_projective_plane_dual(self, p2_pair):
        assert codim2_volume(p2_pair.p) == 3


SMOOTH_DUALS = [
    *[(f"p{n}_dual", lambda n=n: dual(fixtures.simplex_fano(n)).p) for n in (2, 3, 4)],
    *[(f"cross{n}_dual", lambda n=n: dual(fixtures.cross_polytope(n)).p) for n in (2, 3, 4)],
    ("hexagon_dual", lambda: dual(fixtures.hexagon()).p),
    ("cx5_dual", lambda: dual(fixtures.cx5()).p),
]
# more smooth polytopes: cubes and a shifted triangle, and q1's dual, whose
# ridge oracle is slow
SMOOTH_OTHERS = [
    ("cube2", lambda: fixtures.cube(2)),
    ("cube3", lambda: fixtures.cube(3)),
    ("triangle3", lambda: hull([(0, 0), (3, 0), (0, 3)])),
    ("q1_dual", lambda: dual(fixtures.q1()).p),
]


def _product_of_duals(names):
    duals = [dual(hull(SUMMANDS[s])).p for s in names]
    return duals[0] if len(duals) == 1 else direct_product(*duals)


class TestVertexFormula:
    @pytest.mark.parametrize("make", [m for _, m in SMOOTH_DUALS + SMOOTH_OTHERS],
                             ids=[name for name, _ in SMOOTH_DUALS + SMOOTH_OTHERS])
    def test_fixture_matches_triangulation(self, make):
        p = make()
        expected = _volume_and_barycenter_triangulated(p)
        assert volume_and_barycenter(p) == expected
        # the Ehrhart flag adds the ridge volume and the polynomial, and changes nothing else
        assert cone_measures(p) == (*expected, None, None)
        assert cone_measures(p, with_ehrhart=True)[:2] == expected

    @pytest.mark.parametrize("make", [m for _, m in SMOOTH_DUALS],
                             ids=[name for name, _ in SMOOTH_DUALS])
    def test_fixture_codim2_matches_ridges(self, make):
        p = make()
        assert codim2_volume(p) == _codim2_volume_by_ridges(p)

    @pytest.mark.slow
    def test_q1_codim2_matches_ridges(self, q1_pair):
        assert codim2_volume(q1_pair.p) == _codim2_volume_by_ridges(q1_pair.p)

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["x".join(p) for p in PRODUCT_PAIRS])
    def test_product_of_duals_matches_oracles(self, pair):
        p = _product_of_duals(pair)
        expected = _volume_and_barycenter_triangulated(p)
        assert volume_and_barycenter(p) == expected
        assert cone_measures(p) == (*expected, None, None)
        vol, bary, ridges, _ = cone_measures(p, with_ehrhart=True)
        assert (vol, bary) == expected
        assert ridges == codim2_volume(p) == _codim2_volume_by_ridges(p)

    @pytest.mark.parametrize("name, k", [("cx5_pair", 3), ("q1_pair", 2)])
    def test_functional_takes_the_least_k(self, request, monkeypatch, name, k):
        # an edge of cx5's P is orthogonal to (1, 2, 4, 8, 16), so its pass restarts with k = 3;
        # no edge of q1's P is orthogonal to (1, 2, 4, ...), so its pass takes k = 2 at once
        p = request.getfixturevalue(name).p
        edges = [e for es in vertex_cones(p) for e in es]
        powers = {j: tuple(j**i for i in range(p.dim)) for j in range(2, k + 1)}
        assert [any(dot(powers[j], e) == 0 for e in edges) for j in powers] == [j < k for j in powers]
        tried = set()

        def spy(u, v):
            tried.add(tuple(u))
            return dot(u, v)

        monkeypatch.setattr(measures, "dot", spy)
        assert cone_measures(p)[:2] == _volume_and_barycenter_triangulated(p)
        assert tried == set(powers.values())

    def test_functional_restarts_in_dimension_8(self, q2_pair, monkeypatch):
        # q2 under the signed coordinate permutation of the benchmark's corpus seed 1: k = 2 is
        # orthogonal to an edge first at vertex 108 of 128, so the pass restarts late with k = 3
        perm, signs = (0, 1, 7, 3, 2, 6, 5, 4), (-1, -1, 1, 1, -1, -1, -1, -1)
        p = dual(hull([tuple(s * v[i] for i, s in zip(perm, signs)) for v in q2_pair.q.vertices])).p
        powers = [tuple(k**i for i in range(8)) for k in (2, 3)]
        cones = vertex_cones(p)
        assert [next((i for i, es in enumerate(cones) if any(dot(c, e) == 0 for e in es)), None)
                for c in powers] == [108, None]
        tried = []

        def spy(u, v):
            if tuple(u) not in tried:
                tried.append(tuple(u))
            return dot(u, v)

        monkeypatch.setattr(measures, "dot", spy)
        vol, bary, ridge, poly = cone_measures(p, with_ehrhart=True)
        assert tried == powers
        monkeypatch.undo()
        # a signed permutation is orthogonal, so it moves P = Q* as it moves Q
        vol0, bary0, ridge0, poly0 = cone_measures(q2_pair.p, with_ehrhart=True)
        assert (vol, ridge, poly) == (vol0, ridge0, poly0)
        assert bary == tuple(s * bary0[i] for i, s in zip(perm, signs))

    def test_edges_invert_the_facet_normals(self, cx5_pair):
        p = cx5_pair.p
        for facets, edges in zip(vertex_facets(p), vertex_cones(p)):
            normals = [p.facets[i].normal for i in facets]
            assert tuple(tuple(dot(u, e) for e in edges) for u in normals) == identity(p.dim)

    @given(
        st.sampled_from(PRODUCT_PAIRS + [(s,) for s in SUMMANDS]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_unimodular_image(self, names, rng):
        p = _product_of_duals(names)
        u = _random_unimodular(p.dim, rng)
        q = hull([mat_vec(u, v) for v in p.vertices])
        vol, bary = volume_and_barycenter(p)
        assert volume_and_barycenter(q) == (vol, tuple(mat_vec(u, bary)))
        assert codim2_volume(q) == codim2_volume(p)

    def test_rejects_non_simple(self):
        # the octahedron: four facets through each vertex in dimension 3
        p = fixtures.cross_polytope(3)
        for measure in (volume_and_barycenter, codim2_volume):
            with pytest.raises(MeasureError, match="lies on 4 facets"):
                measure(p)
        # as the dual of the cube, whose facets of 4 vertices hand over no cone inverse
        with pytest.raises(MeasureError, match="lies on 4 facets, expected 3"):
            vertex_cones(dual(fixtures.cube(3)).p)

    def test_rejects_non_unimodular_cone(self):
        # a simple triangle whose vertex cones have determinant 3
        p = hull([(0, 0), (2, 1), (1, 2)])
        for measure in (volume_and_barycenter, codim2_volume):
            with pytest.raises(MeasureError, match="determinant"):
                measure(p)
        # a dual whose Q holds (0, -1) on a facet: the hull still inverts that facet by its vertices
        p = dual(hull([(-1, -1), (0, -1), (1, -1), (0, 1)])).p
        assert all(p.cone_inverses)
        with pytest.raises(MeasureError, match="vertex \\(0, 1\\) has a cone of determinant 2"):
            vertex_cones(p)


# Differential oracle: the per-vertex Todd product that cone_measures formed
# factor by factor before it read the power sums of the a_j.

def _todd_coefficients(n):
    """L and the (k, L tau_k) with k >= 1 and tau_k != 0, Td(x) = x / (1 - e^-x) = sum_k tau_k x^k, L the lcm
    of the denominators of tau_0..tau_n: Td is the inverse series of (1 - e^-x) / x = sum_k (-x)^k / (k+1)!."""
    tau = [Fraction(1)]
    for m in range(1, n + 1):
        tau.append(-sum(Fraction((-1) ** k, factorial(k + 1)) * tau[m - k] for k in range(1, m + 1)))
    big = lcm(*(t.denominator for t in tau))
    return big, [(k, int(t * big)) for k, t in enumerate(tau) if k and t]


def _todd_product(a, todd):
    """L^n prod_j Td(a_j t) to degree n = len(a), one factor at a time; ``todd`` is ``_todd_coefficients(n)``."""
    n, (big, nonzero) = len(a), todd
    poly = [big] + [0] * n
    for k, t in nonzero:
        poly[k] = t * a[0] ** k
    for x in a[1:]:
        new = [big * y for y in poly]
        for k, t in nonzero:
            tx = t * x**k
            for deg in range(k, n + 1):
                new[deg] += tx * poly[deg - k]
        poly = new
    return poly


def _ridges_and_ehrhart_by_todd_products(p):
    """Ridge volume and Ehrhart polynomial by Brion's formula with each vertex's Todd product, in Fractions."""
    n, cones = p.dim, vertex_cones(p)
    k = 2
    while not all(prod(-dot(c, e) for e in edges) for c in [[k**i for i in range(n)]] for edges in cones):
        k += 1
    c, todd = [k**i for i in range(n)], _todd_coefficients(n)
    ridges, coefficients = Fraction(0), [Fraction(0)] * (n + 1)
    for v, edges in zip(p.vertices, cones):
        a = [-dot(c, e) for e in edges]
        pi, s, poly = prod(a), dot(c, v), _todd_product(a, todd)
        ridges += Fraction(sum(x * y for x, y in combinations(a, 2)) * s ** (n - 2), factorial(n - 2) * pi)
        for m in range(n + 1):
            coefficients[m] += Fraction(s**m * poly[n - m], factorial(m) * pi * todd[0] ** n)
    return ridges, EhrhartPolynomial(tuple(coefficients))


class TestToddPowerSums:
    @given(st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_match_the_todd_product(self, a):
        n = len(a)
        todd = _todd_coefficients(n)
        big, steps = measures._todd_series(n)
        e2, u = measures._todd_power_sums(a, steps)
        # U_m = m! L^m T_m against the product's L^n T_m
        assert [x * big ** (n - m) for m, x in enumerate(u)] == [factorial(m) * y for m, y in
                                                                  enumerate(_todd_product(a, todd))]
        assert big == todd[0]
        assert e2 == sum(x * y for x, y in combinations(a, 2)) == (sum(a) ** 2 - sum(x * x for x in a)) // 2

    def test_log_coefficients(self):
        # H_k = k l_k L^k, l_1 = 1/2 and l_2k = -B_2k / (2k (2k)!), B_2..B_8 = 1/6, -1/30, 1/42, -1/30
        big, steps = measures._todd_series(9)
        ls = {k: Fraction(h * factorial(m - k), k * factorial(m - 1) * big**k) for m, row in enumerate(steps)
              for k, h in row}
        bernoulli = {2: Fraction(1, 6), 4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30)}
        assert ls == {1: Fraction(1, 2), **{k: -b / (k * factorial(k)) for k, b in bernoulli.items()}}

    @pytest.mark.parametrize("make", [fixtures.q1, fixtures.q2, fixtures.q3, lambda: fixtures.product_family(2)],
                             ids=["q1", "q2", "q3", "product_family2"])
    def test_cone_measures_match_the_product_pass(self, make):
        p = dual(make()).p
        assert cone_measures(p, with_ehrhart=True)[2:] == _ridges_and_ehrhart_by_todd_products(p)


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
