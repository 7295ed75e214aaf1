import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_measures import PRODUCT_PAIRS, SUMMANDS, direct_product
from test_symmetry import _elementary_unimodular

from toricfano import fixtures, polytope
from toricfano.linalg import (
    det,
    dot,
    identity,
    inverse_columns,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_inverse_unimodular,
    rank,
    transpose,
    vec_sub,
)
from toricfano.measures import vertex_cones
from toricfano.polytope import (
    DimensionDeficiencyError,
    Facet,
    LatticePolytope,
    PointDimensionError,
    PolytopeError,
    dual,
    faces_codim2,
    free_sum,
    hull,
    is_smooth_fano,
    restrict_to_subspace,
    segment,
)


def _hull_exhaustive(points):
    """Oracle hull: every n-subset of points that spans a supporting hyperplane.

    Exponential in the point count; exact, order-insensitive, and robust to
    redundant input points.
    """
    pts = sorted(set(tuple(int(x) for x in p) for p in points))
    if not pts:
        raise DimensionDeficiencyError("no input points")
    n = len(pts[0])
    if len(pts) < n + 1:
        raise DimensionDeficiencyError("too few points to span the space")
    base = pts[0]
    diffs = [vec_sub(p, base) for p in pts[1:]]
    if rank(diffs) < n:
        raise DimensionDeficiencyError("points do not affinely span the space")

    seen = {}
    for idx in combinations(range(len(pts)), n):
        rows = [vec_sub(pts[i], pts[idx[0]]) for i in idx[1:]]
        ker = kernel_basis(rows, ncols=n)
        if len(ker) != 1:
            continue
        u = ker[0]
        b = dot(u, pts[idx[0]])
        key = (u, b)
        if key in seen or (tuple(-x for x in u), -b) in seen:
            continue
        vals = [dot(u, p) for p in pts]
        lo, hi = min(vals), max(vals)
        if lo == b and hi > b:
            seen[(u, b)] = frozenset(i for i, v in enumerate(vals) if v == b)
        elif hi == b and lo < b:
            u2 = tuple(-x for x in u)
            seen[(u2, -b)] = frozenset(i for i, v in enumerate(vals) if v == b)

    # vertices: points whose incident facet normals span the whole space
    incident = {i: [] for i in range(len(pts))}
    for (u, b), inc in seen.items():
        for i in inc:
            incident[i].append(u)
    vert_idx = [i for i in range(len(pts)) if len(incident[i]) >= n and rank(incident[i]) == n]
    verts = [pts[i] for i in vert_idx]
    facets = tuple(Facet(u, b, frozenset(i for i, v in enumerate(verts) if dot(u, v) == b))
                   for u, b in sorted(seen))
    return LatticePolytope(n, tuple(verts), facets)


def _inverses_afresh(p, points):
    """``Facet.inverse`` of each facet of p = hull(points) by its own elimination of its sorted points.

    None for a facet through the origin or holding other than n of the points.
    """
    on = [sorted(x for x in set(points) if dot(f.normal, x) == f.rhs) for f in p.facets]
    return [inverse_columns(b) if len(b) == p.dim and f.rhs else None for f, b in zip(p.facets, on)]


@st.composite
def point_sets(draw, dims=(1, 4)):
    """Integer point sets with interior points, edge midpoints and a crowded wall.

    Coordinates are doubled so that midpoints stay integral; the extra points
    on the hyperplane x_0 = -4 make facets with more than n points.
    """
    n = draw(st.integers(*dims))
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    raw = draw(st.lists(coords, min_size=n + 1, max_size=n + 4))
    pts = [tuple(2 * x for x in p) for p in raw]
    index = st.integers(0, len(pts) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3))
    pts += [tuple((x + y) // 2 for x, y in zip(pts[i], pts[j])) for i, j in pairs]
    wall = draw(st.lists(coords, max_size=3))
    pts += [(-4,) + tuple(2 * x for x in p[1:]) for p in wall]
    return pts


@st.composite
def origin_inside_sets(draw, dims=(1, 4)):
    """Point sets with the origin strictly inside: points that span, their mirror images, a wall.

    Coordinates are doubled, and the wall's points lie on x_0 = -4, the least
    value the mirrored points can reach, so it is often a facet with more
    than n points.
    """
    n = draw(st.integers(*dims))
    coords = st.tuples(*[st.integers(-2, 2)] * n)
    raw = draw(st.lists(coords, min_size=n, max_size=n + 3).filter(lambda raw: rank(raw) == n))
    pts = [tuple(2 * x for x in p) for p in raw]
    pts += [tuple(-x for x in p) for p in pts]
    wall = draw(st.lists(coords, max_size=n + 2))
    return pts + [(-4,) + tuple(2 * x for x in p[1:]) for p in wall]


ORACLE_FIXTURES = [
    *[(f"p{n}", lambda n=n: fixtures.simplex_fano(n)) for n in range(1, 5)],
    *[(f"cross{n}", lambda n=n: fixtures.cross_polytope(n)) for n in range(2, 5)],
    *[(f"cube{n}", lambda n=n: fixtures.cube(n)) for n in range(2, 5)],
    ("hexagon", fixtures.hexagon),
    ("cx5", fixtures.cx5),
    ("q1", fixtures.q1),
]
# simplicial facets through the origin: the walk runs on translated points
ORIGIN_FACETS = [
    ("simplex3_at_origin", lambda: hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])),
    ("origin_in_facet", lambda: hull([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)])),
]
# a square facet among triangles: a degenerate pivot inside it, lexicographic ties at its edges
MIXED_FACETS = [
    ("square_pyramid", lambda: hull([(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1), (0, 0, 1)])),
]
# non-simplicial hulls with the origin strictly inside, on a facet, at a vertex and outside,
# given with points that are no vertices (cube4's facet centres, a square's centre)
ORIGIN_POSITIONS = [
    ("prism_origin_inside", [p + (z,) for p in ((1, 0), (0, 1), (-1, -1)) for z in (-1, 1)]),
    ("cube4_facet_centres", [tuple(2 * x for x in v) for v in fixtures.cube(4).vertices]
     + [tuple(2 * s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]),
    ("cube3_origin_on_facet", [(x + 1, y, z) for x, y, z in fixtures.cube(3).vertices] + [(0, 0, 0)]),
    ("cube3_origin_at_vertex", [tuple(x + 1 for x in v) for v in fixtures.cube(3).vertices]),
    ("cube3_origin_outside", [(x + 3, y + 1, z) for x, y, z in fixtures.cube(3).vertices]),
]
ORACLE_FIXTURES += ORIGIN_FACETS + MIXED_FACETS
SMOOTH_FANO = [(name, make) for name, make in ORACLE_FIXTURES
               if not name.startswith("cube") and (name, make) not in ORIGIN_FACETS + MIXED_FACETS]
ORACLE_FIXTURES += [(name, lambda pts=pts: hull(pts)) for name, pts in ORIGIN_POSITIONS]
SMOOTH_FANO.append(("q2", fixtures.q2))


def _unimodular_image(make, seed):
    """The hull of a GL(n, Z) image of make()'s vertices, given in shuffled order."""
    q = make()
    rng = random.Random(seed)
    u = _elementary_unimodular(q.dim, rng)
    pts = [mat_vec(u, v) for v in q.vertices]
    rng.shuffle(pts)
    return hull(pts)


# GL(n, Z) images reach each facet by other exchanges, so its basis order and sign differ
IMAGES = [(f"{name}_image{seed}", lambda make=make, seed=seed: _unimodular_image(make, seed))
          for name, make in [("cx5", fixtures.cx5), ("q1", fixtures.q1)] for seed in (1, 2)]


def _check_unimodular_image(pts, rng):
    """The hull of a GL(n, Z) image of pts, shuffled, is the image of their hull."""
    p = hull(pts)
    n = p.dim
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
    images = [mat_vec(u, x) for x in pts]
    rng.shuffle(images)
    q = hull(images)
    dual_map = transpose(matrix_inverse_unimodular(u))
    assert {(mat_vec(dual_map, f.normal), f.rhs) for f in p.facets} == {
        (f.normal, f.rhs) for f in q.facets
    }
    assert sorted(mat_vec(u, v) for v in p.vertices) == list(q.vertices)


class TestHullOracle:
    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FIXTURES],
                             ids=[name for name, _ in ORACLE_FIXTURES])
    def test_fixture_matches_exhaustive(self, make):
        p = make()
        assert hull(p.vertices) == _hull_exhaustive(p.vertices)

    def test_redundant_points_match_exhaustive(self):
        # cube3 plus its centre, face centres and edge midpoints, doubled
        pts = [tuple(2 * x for x in v) for v in fixtures.cube(3).vertices]
        pts += [tuple((x + y) // 2 for x, y in zip(a, b)) for a, b in combinations(pts, 2)]
        p = hull(pts)
        assert p == _hull_exhaustive(pts)
        assert p.vertices == tuple(tuple(2 * x for x in v) for v in fixtures.cube(3).vertices)

    @given(point_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_exhaustive(self, pts):
        try:
            expected = _hull_exhaustive(pts)
        except DimensionDeficiencyError:
            with pytest.raises(DimensionDeficiencyError):
                hull(pts)
            return
        p = hull(pts)
        assert p == expected
        assert [f.inverse for f in p.facets] == _inverses_afresh(p, pts)

    @pytest.mark.parametrize("pts", [pts for _, pts in ORIGIN_POSITIONS], ids=[name for name, _ in ORIGIN_POSITIONS])
    def test_points_off_the_vertices_match_exhaustive(self, pts):
        assert hull(pts) == _hull_exhaustive(pts)
        _check_unimodular_image(pts, random.Random(len(pts)))

    @given(origin_inside_sets())
    @settings(max_examples=100, deadline=None)
    def test_origin_inside_matches_exhaustive(self, pts):
        p = hull(pts)
        assert p.contains_origin_interior()
        assert p == _hull_exhaustive(pts)
        assert [f.inverse for f in p.facets] == _inverses_afresh(p, pts)

    @given(point_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_unimodular_image(self, pts, rng):
        try:
            hull(pts)
        except DimensionDeficiencyError:
            return
        _check_unimodular_image(pts, rng)

    @given(origin_inside_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_origin_inside_unimodular_image(self, pts, rng):
        _check_unimodular_image(pts, rng)


class TestHull:
    def test_cross_polytope(self):
        p = hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert p.n_vertices == 4
        assert len(p.facets) == 4
        assert {f.normal for f in p.facets} == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert all(f.rhs == -1 for f in p.facets)

    def test_interior_point_dropped(self):
        p = hull([(1, 0), (0, 1), (-1, -1), (0, 0)])
        assert p.n_vertices == 3
        assert (0, 0) not in p.vertices

    def test_midpoint_dropped(self):
        p = hull([(-1,), (0,), (1,)])
        assert p.vertices == ((-1,), (1,))

    # each raises once the first facet holds every point, or in a tilt with
    # no point off its hyperplane for the 2-flat in R^4
    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (0, 1), (0, 2)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)],
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -1, 0)],
    ], ids=["collinear", "vertical", "square_in_r3", "plane_in_r4", "hyperplane_in_r4"])
    def test_lower_dimensional_rejected(self, pts):
        with pytest.raises(DimensionDeficiencyError, match="^points do not affinely span the space$"):
            hull(pts)

    @pytest.mark.parametrize("x", [Fraction(3, 2), 2.9], ids=["fraction", "float"])
    def test_non_integer_coordinate_rejected(self, x):
        with pytest.raises(TypeError):
            hull([(x, 0), (0, 1), (-1, -1)])

    def test_too_few_points_rejected(self):
        with pytest.raises(DimensionDeficiencyError):
            hull([(0, 0), (1, 0)])

    # one point with a coordinate too many, one with too few, and no coordinates
    @pytest.mark.parametrize("pts", [
        [(0, 0), (1, 0), (0, 1), (1, 1, 1)],
        [(0, 0), (1, 0), (0, 1), (1,)],
        [()],
    ], ids=["longer", "shorter", "empty_point"])
    def test_ragged_points_rejected(self, pts):
        message = "^points need one common, positive number of coordinates$"
        with pytest.raises(PointDimensionError, match=message):
            hull(pts)

    def test_incidence(self):
        p = hull([(1, 0), (0, 1), (-1, -1)])
        for f in p.facets:
            assert len(f.vertex_indices) == 2
            for i in f.vertex_indices:
                from toricfano.linalg import dot

                assert dot(f.normal, p.vertices[i]) == f.rhs

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=4,
            max_size=8,
        ),
        st.randoms(),
    )
    @settings(max_examples=60, deadline=None)
    def test_order_insensitive(self, pts, rng):
        try:
            a = hull(pts)
        except DimensionDeficiencyError:
            return
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert hull(shuffled) == a

    # (name, make, vertices, facets, components, sum of |det| over Facet.inverse): with the origin strictly
    # inside, the simplicial facets' cones over it tile the hull less the cones of the others, so on
    # a smooth Fano polytope the |det| sum to the facet count, and a cube has no simplicial facet
    @pytest.mark.parametrize("make, vertices, facets, components, dets", [pytest.param(*case[1:], id=case[0]) for case in [
        ("cx5", fixtures.cx5, 8, 18, 1, 18),
        ("q1", fixtures.q1, 12, 64, 1, 64),
        ("q2", fixtures.q2, 14, 128, 1, 128),
        ("simplex3_at_origin", ORIGIN_FACETS[0][1], 4, 4, 1, 1),
        ("origin_in_facet", ORIGIN_FACETS[1][1], 4, 4, 1, 3),
        ("square_pyramid", MIXED_FACETS[0][1], 5, 5, 1, 8),
        *[(f"cube{n}", lambda n=n: fixtures.cube(n), 2 ** n, 2 * n, 0, 0) for n in range(3, 9)],
    ]])
    def test_work_follows_facets(self, make, vertices, facets, components, dets, monkeypatch):
        q = make()
        counts = dict.fromkeys(["kernel_basis", "adjugate", "inverse_columns"], 0)
        for fn in counts:
            wrapped = getattr(polytope, fn)

            def counting(*args, fn=fn, wrapped=wrapped):
                counts[fn] += 1
                return wrapped(*args)

            monkeypatch.setattr(polytope, fn, counting)
        p = hull(q.vertices)
        assert p == q and (p.n_vertices, len(p.facets)) == (vertices, facets)
        # one kernel for the span, one adjugate for the start simplex, one elimination per
        # component of the simplicial facets off the origin, then one crossing per further facet
        assert counts == {"kernel_basis": 1, "adjugate": 1, "inverse_columns": components}
        assert sum(abs(f.inverse[0]) for f in p.facets if f.inverse) == dets

    def test_cube8_is_quick(self):
        start = time.perf_counter()
        p = fixtures.cube(8)
        assert time.perf_counter() - start < 0.5
        assert len(p.facets) == 16 and p.n_vertices == 256


class TestStoredAdjugates:
    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FIXTURES + [("q2", fixtures.q2)] + IMAGES],
                             ids=[name for name, _ in ORACLE_FIXTURES + [("q2", fixtures.q2)] + IMAGES])
    def test_adjugate_inverts_the_vertex_matrix(self, make):
        # ``Facet.inverse`` is (det B, the columns of |det B| B^-1), B the facet's vertex matrix
        q = make()
        n = q.dim
        for f in q.facets:
            assert (f.inverse is not None) == (len(f.vertex_indices) == n and f.rhs != 0)
            if f.inverse is not None:
                d, cols = f.inverse
                vs = q.facet_vertices(f)
                assert type(d) is int and d == det(vs)
                assert type(cols) is tuple and all(type(col) is tuple and len(col) == n for col in cols)
                assert mat_mul(transpose(cols), vs) == tuple(tuple(abs(d) * x for x in row) for row in identity(n))

    @pytest.mark.parametrize("make", [fixtures.cx5, fixtures.q1, fixtures.q2], ids=["cx5", "q1", "q2"])
    def test_smooth_fano_hull_eliminates_once(self, make, monkeypatch):
        q = make()
        calls = 0
        adjugate = polytope.adjugate

        def counting_adjugate(m):
            nonlocal calls
            calls += 1
            return adjugate(m)

        monkeypatch.setattr(polytope, "adjugate", counting_adjugate)
        assert hull(q.vertices) == q
        assert calls == 1

    @pytest.mark.parametrize("make", [m for _, m in ORACLE_FIXTURES], ids=[name for name, _ in ORACLE_FIXTURES])
    def test_smoothness_without_stored_adjugates(self, make):
        q = make()
        bare = q._replace(facets=tuple(f._replace(inverse=None) for f in q.facets))
        assert is_smooth_fano(bare) == is_smooth_fano(q)

    @pytest.mark.parametrize("make", [m for _, m in SMOOTH_FANO], ids=[name for name, _ in SMOOTH_FANO])
    def test_dual_cones_match_a_fresh_elimination(self, make):
        p = dual(make()).p
        assert all(p.cone_inverses)
        assert vertex_cones(p) == vertex_cones(p._replace(cone_inverses=None))


class TestDual:
    def test_projective_plane(self, p2_pair):
        assert p2_pair.p.vertices == ((-1, -1), (-1, 2), (2, -1))

    def test_cube_cross(self):
        dp = dual(fixtures.cross_polytope(3))
        assert dp.p == fixtures.cube(3)

    def test_involution(self, p2_pair):
        assert dual(p2_pair.p).p == p2_pair.q

    def test_pairing_bound(self, p2_pair):
        from toricfano.linalg import dot

        for w in p2_pair.p.vertices:
            for v in p2_pair.q.vertices:
                assert dot(w, v) >= -1

    @pytest.mark.parametrize("pair", ["p2", "p3", "cross2", "cross3", "hexagon", "cx5", "q1"])
    def test_incidence_matches_pairing(self, pair, request):
        p = request.getfixturevalue(f"{pair}_pair").p
        for f in p.facets:
            for i, w in enumerate(p.vertices):
                tight = dot(f.normal, w) == -1
                assert tight == (i in f.vertex_indices)

    def test_requires_interior_origin(self):
        shifted = hull([(1, 0), (0, 1), (1, 1), (2, 2)])
        with pytest.raises(PolytopeError):
            dual(shifted)


class TestSmoothFano:
    def test_projective_plane(self):
        ok, cert = is_smooth_fano(hull([(1, 0), (0, 1), (-1, -1)]))
        assert ok and cert is None

    def test_blowup_of_plane(self):
        ok, _ = is_smooth_fano(hull([(1, 0), (0, 1), (-1, -1), (1, 1)]))
        assert ok

    def test_non_unimodular_facet(self):
        ok, cert = is_smooth_fano(hull([(1, 0), (0, 1), (-2, -1)]))
        assert not ok
        assert "determinant" in cert

    def test_cube_is_not_smooth(self):
        ok, cert = is_smooth_fano(fixtures.cube(2))
        assert not ok
        assert cert

    def test_imprimitive_vertex(self):
        ok, cert = is_smooth_fano(hull([(2, 0), (0, 1), (-2, -1), (0, -1)]))
        assert not ok
        assert "primitive" in cert


class TestFacesCodim2:
    def test_square(self):
        ridges = faces_codim2(fixtures.cube(2))
        assert len(ridges) == 4
        assert all(len(s) == 1 for s, _ in ridges)

    def test_cube3(self):
        ridges = faces_codim2(fixtures.cube(3))
        assert len(ridges) == 12
        assert all(len(s) == 2 for s, _ in ridges)

    def test_matches_incidence_scan(self, p2_pair):
        p = p2_pair.p
        ridges = faces_codim2(p)
        # triangle: codim-2 faces are the vertices
        assert len(ridges) == 3


class TestConstructions:
    def test_segment_free_sum(self):
        assert free_sum(segment(), segment()) == fixtures.cross_polytope(2)

    def test_product_of_segments(self):
        assert direct_product(segment(), segment()) == fixtures.cube(2)

    def test_triangle_prism(self, p2_pair):
        prism = direct_product(p2_pair.p, segment())
        assert prism.n_vertices == 6

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["x".join(p) for p in PRODUCT_PAIRS])
    def test_free_sum_product_duality(self, pair):
        qa, qb = (hull(SUMMANDS[s]) for s in pair)
        a, b = dual(qa).p, dual(qb).p
        p = dual(free_sum(qa, qb)).p
        assert p == direct_product(a, b) == hull([v + w for v in a.vertices for w in b.vertices])

    def test_facet_normals_primitive(self):
        from toricfano.linalg import primitive

        for p in [fixtures.cube(3), fixtures.cross_polytope(3), fixtures.hexagon()]:
            for f in p.facets:
                assert primitive(f.normal) in (f.normal, tuple(-x for x in f.normal))
                from math import gcd

                g = 0
                for x in f.normal:
                    g = gcd(g, abs(x))
                assert g == 1


class TestRestrict:
    def test_square_to_axis(self):
        sliced = restrict_to_subspace(fixtures.cube(2), [(1, 0)])
        assert sliced.vertices == ((Fraction(-1),), (Fraction(1),))

    def test_cross_to_diagonal(self):
        sliced = restrict_to_subspace(fixtures.cross_polytope(2), [(1, 1)])
        assert sliced.vertices == ((Fraction(-1, 2),), (Fraction(1, 2),))

    def test_ambient_embedding(self):
        sliced = restrict_to_subspace(fixtures.cross_polytope(2), [(1, 1)])
        amb = sliced.ambient_vertices()
        assert sorted(amb) == [
            (Fraction(-1, 2), Fraction(-1, 2)),
            (Fraction(1, 2), Fraction(1, 2)),
        ]

    def test_dependent_basis_rejected(self):
        with pytest.raises(PolytopeError):
            restrict_to_subspace(fixtures.cube(2), [(1, 0), (2, 0)])
