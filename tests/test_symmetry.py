import hashlib
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_measures import PRODUCT_PAIRS, SUMMANDS
from toricfano import fixtures, symmetry
from toricfano.conjectures import check_conj11
from toricfano.criteria import alpha_invariant, full_verdict, lct, max_pairing
from toricfano.io import ScanOptions, scan
from toricfano.linalg import (
    SingularMatrixError,
    adjugate,
    dot,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_inverse_unimodular,
    transpose,
)
from toricfano.polytope import PolytopeError, dual, free_sum, hull, restrict_to_subspace
from toricfano.symmetry import (
    FixedSpace,
    SymmetryGroup,
    automorphism_group,
    fixed_space,
    index_orbit,
    polytope_automorphisms,
    transport_group,
    trivial_group,
    vertex_sum,
)


def _automorphisms_oracle(q, prune):
    """The search without the early vertex check: one matrix per candidate.

    Every ordered tuple of distinct vertices of a facet is a candidate image
    of the anchor basis; its matrix W B0^-1 is kept when it maps every
    vertex to a vertex.  ``prune`` filters the candidates by the facet-value
    profiles and common-facet counts first.
    """
    n, verts, facets = q.dim, q.vertices, q.facets
    anchor = next(f for f in facets if len(f.vertex_indices) == n)
    profiles = [tuple(sorted(dot(f.normal, v) for f in facets)) for v in verts]
    common = [[sum(1 for f in facets if {a, b} <= f.vertex_indices) for b in range(len(verts))]
              for a in range(len(verts))]
    base = sorted(anchor.vertex_indices)
    b0_inv = matrix_inverse_unimodular(transpose([verts[i] for i in base]))

    def assignments(targets, assignment):
        pos = len(assignment)
        if pos == n:
            yield assignment
            return
        src = base[pos]
        for t in targets:
            if t in assignment:
                continue
            if prune and (
                profiles[t] != profiles[src]
                or any(common[t][assignment[j]] != common[src][base[j]] for j in range(pos))
            ):
                continue
            yield from assignments(targets, assignment + [t])

    vertex_set = set(verts)
    found = set()
    for facet in facets:
        for assignment in assignments(sorted(facet.vertex_indices), []):
            a = mat_mul(transpose([verts[i] for i in assignment]), b0_inv)
            if all(mat_vec(a, v) in vertex_set for v in verts):
                found.add(a)
    return tuple(sorted(found))


def orbit_of(point, generators):
    """Orbit of ``point`` under the finite group the matrices generate, breadth first.

    The matrix oracle for the search's index orbits.
    """
    orbit, seen = [point], {point}
    for x in orbit:
        for a in generators:
            y = mat_vec(a, x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return tuple(orbit)


def _elementary_unimodular(n, rng):
    """A matrix of GL(n, Z) from random row additions, negations and swaps."""
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
    return tuple(tuple(row) for row in u)


@cache
def closure(g):
    """Every element of g, by breadth-first products with its generators.

    Lists all |G| matrices: keep it to groups of at most about 10^5 elements.
    """
    elems = [identity(g.dim)]
    seen = set(elems)
    for x in elems:
        for a in g.generators:
            y = mat_mul(a, x)
            if y not in seen:
                seen.add(y)
                elems.append(y)
    return tuple(sorted(elems))


# Differential oracles: the direct forms that transport_group and
# fixed_space replace by algebraic identities.  Slow on large groups.

def inverse_transpose_oracle(g):
    return tuple(sorted(transpose(matrix_inverse_unimodular(a)) for a in closure(g)))


def stacked_fixed_space_oracle(g):
    """Kernel of every row of every a - I, stacked (n * |G| rows)."""
    n = g.dim
    rows = []
    for a in closure(g):
        for ra, ri in zip(a, identity(n)):
            row = tuple(x - y for x, y in zip(ra, ri))
            if any(row):
                rows.append(row)
    if not rows:
        return FixedSpace(dim=n, basis=tuple(identity(n)))
    basis = kernel_basis(rows, ncols=n)
    return FixedSpace(dim=len(basis), basis=tuple(basis))


def cyclic_subgroup(g, a):
    """The subgroup <a> in g's record: a permutes vert(Q), or a^T does on the dual side, so its generators are (a,)."""
    order, x = 1, a
    while x != identity(g.dim):
        order += 1
        x = mat_mul(x, a)
    return g._replace(permutations=(_action(transpose(a) if g.transposed else a, g.anchor[0]),), order=order)


def smallest_cyclic_subgroup(g):
    """A cyclic subgroup of least order above 1."""
    ident = identity(g.dim)
    return min(
        (cyclic_subgroup(g, a) for a in closure(g) if a != ident),
        key=lambda c: (c.order, c.generators),
    )


PAIRS = ["p2_pair", "p3_pair", "cross2_pair", "cross3_pair", "hexagon_pair", "cx5_pair"]


def groups_of(request, name):
    if name in ("q1_pair", "q2_pair"):
        return request.getfixturevalue(name.replace("pair", "groups"))
    return automorphism_group(request.getfixturevalue(name))


def orbits_oracle(points, g):
    """The orbit of each point, as a set, by applying every element.

    Orbits of a group partition the points, so each is built once.
    """
    elems = closure(g)
    orbit = {}
    for v in points:
        if v not in orbit:
            orbit.update(dict.fromkeys({mat_vec(a, v) for a in elems}, v))
    return [{w for w in points if orbit[w] == orbit[v]} for v in points]


def facet_orbits_oracle(p, g):
    """The facet indices each facet of p reaches, by mapping its vertex set."""
    index = {frozenset(p.facet_vertices(f)): i for i, f in enumerate(p.facets)}
    elems = closure(g)
    return [
        {index[frozenset(mat_vec(a, w) for w in p.facet_vertices(f))] for a in elems}
        for f in p.facets
    ]


def test_cross_polytope_order_8():
    g = polytope_automorphisms(fixtures.cross_polytope(2))
    assert g.order == 8


def test_projective_plane_order_6():
    g = polytope_automorphisms(fixtures.simplex_fano(2))
    assert g.order == 6


def test_hexagon_order_12():
    g = polytope_automorphisms(fixtures.hexagon())
    assert g.order == 12


@pytest.mark.parametrize("name", PAIRS + ["q1_pair", "q2_pair"])
def test_order_is_the_closure_size(request, name):
    for g in groups_of(request, name):
        assert len(closure(g)) == g.order


def test_closure_and_inverses():
    g = polytope_automorphisms(fixtures.simplex_fano(2))
    elems = set(closure(g))
    assert identity(2) in elems
    for a in elems:
        assert transpose(matrix_inverse_unimodular(transpose(a))) != None  # invertible
        inv = matrix_inverse_unimodular(a)
        assert inv in elems
        for b in elems:
            assert mat_mul(a, b) in elems


def test_elements_permute_vertices():
    q = fixtures.hexagon()
    g = polytope_automorphisms(q)
    vs = set(q.vertices)
    for a in closure(g):
        assert {mat_vec(a, v) for v in vs} == vs


@pytest.mark.parametrize("name", PAIRS)
def test_search_matches_unpruned_oracle(request, name):
    q = request.getfixturevalue(name).q
    assert closure(polytope_automorphisms(q)) == _automorphisms_oracle(q, prune=False)


def test_search_matches_pruned_oracle_q1(q1_pair, q1_groups):
    assert closure(q1_groups[0]) == _automorphisms_oracle(q1_pair.q, prune=True)


@given(
    st.sampled_from(PRODUCT_PAIRS + [(s,) for s in SUMMANDS]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_unimodular_image_conjugates_group(names, rng):
    """The group of U.Q is U G U^-1: anchor bases there are not permutations."""
    parts = [hull(SUMMANDS[s]) for s in names]
    q = parts[0] if len(parts) == 1 else free_sum(*parts)
    u = _elementary_unimodular(q.dim, rng)
    u_inv = matrix_inverse_unimodular(u)
    images = [mat_vec(u, v) for v in q.vertices]
    rng.shuffle(images)
    expected = sorted(mat_mul(mat_mul(u, a), u_inv) for a in closure(polytope_automorphisms(q)))
    assert closure(polytope_automorphisms(hull(images))) == tuple(expected)


@pytest.mark.parametrize("name", PAIRS)
def test_dual_facet_normals_are_the_vertices(request, name):
    dp = request.getfixturevalue(name)
    assert [f.normal for f in dp.p.facets] == list(dp.q.vertices)


@pytest.mark.parametrize("name", PAIRS + ["q1_pair", "q2_pair"])
def test_orbits_match_oracle(request, name):
    dp = request.getfixturevalue(name)
    for g, points in zip(groups_of(request, name), (dp.q.vertices, dp.p.vertices)):
        orbits = [set(orbit_of(v, g.generators)) for v in points]
        assert orbits == orbits_oracle(points, g)
        perms = tuple(_action(a, points) for a in g.generators)
        assert [{points[j] for j in index_orbit(i, perms)} for i in range(len(points))] == orbits


@pytest.mark.parametrize("name", PAIRS)
def test_dual_orbits_are_facet_orbits(request, name):
    """The map u -> h^-T u moves facet normals as h moves facets."""
    p = request.getfixturevalue(name).p
    _, gp = groups_of(request, name)
    index = {f.normal: i for i, f in enumerate(p.facets)}
    normal_maps = [transpose(h) for h in gp.generators]
    orbits = [{index[u] for u in orbit_of(f.normal, normal_maps)} for f in p.facets]
    assert orbits == facet_orbits_oracle(p, gp)


@pytest.fixture(scope="module")
def unimodular_cx5_pair():
    """cx5 under a fixed GL(5, Z) matrix, whose anchor bases are not permutations."""
    u = _elementary_unimodular(5, random.Random(5))
    return dual(hull([mat_vec(u, v) for v in fixtures.cx5().vertices]))


def _action(a, points):
    index = {v: i for i, v in enumerate(points)}
    return tuple(index[mat_vec(a, v)] for v in points)


@pytest.mark.parametrize("name", PAIRS + ["q1_pair", "q2_pair", "unimodular_cx5_pair"])
def test_permutations_are_the_matrix_actions(request, name):
    """Each Fano-side generator a permutes vert(Q), and each dual one a^T vert(P);
    both sides' records keep the Fano-side actions, and only the dual side is transposed."""
    dp = request.getfixturevalue(name)
    gq, gp = groups_of(request, name)
    for g, points in ((gq, dp.q.vertices), (gp, dp.p.vertices)):
        assert g.generators
        for a in g.generators:
            assert sorted(_action(a, points)) == list(range(len(points)))
    assert gq.permutations == gp.permutations == tuple(_action(a, dp.q.vertices) for a in gq.generators)
    assert gp == gq._replace(transposed=True) != gq


@pytest.mark.parametrize(
    "make",
    [*(lambda n=n: fixtures.simplex_fano(n) for n in range(1, 5)),
     *(lambda n=n: fixtures.cross_polytope(n) for n in range(2, 5)),
     fixtures.hexagon, fixtures.cx5, fixtures.q1, fixtures.q2, fixtures.q3],
    ids=[*(f"p{n}" for n in range(1, 5)), *(f"cross{n}" for n in range(2, 5)), "hexagon", "cx5", "q1", "q2", "q3"],
)
def test_half_filled_gram_is_the_two_product_table(monkeypatch, make):
    """The search's W, filled for j >= i and mirrored, is V adj(M) V^T multiplied out in full."""
    q = make()
    tables = []
    search = symmetry._first_assignment
    monkeypatch.setattr(symmetry, "_first_assignment", lambda *args: tables.append(args[0][3]) or search(*args))
    polytope_automorphisms(q)
    vt = transpose(q.vertices)
    _, adj = adjugate(mat_mul(vt, q.vertices))
    assert tables and all(list(map(tuple, w)) == list(mat_mul(mat_mul(q.vertices, adj), vt)) for w in tables)


@pytest.mark.parametrize(
    "make, calls, order",
    [(fixtures.cx5, 31, 72), (fixtures.q1, 36, 1152), (fixtures.q2, 45, 2304), (fixtures.q3, 44, 2304)],
    ids=["cx5", "q1", "q2", "q3"],
)
def test_search_calls_are_pinned(monkeypatch, make, calls, order):
    """The Gram form leaves the search few dead ends: pruned by the facet-value
    profiles alone, it made 210, 652, 2427 and 4347 calls here."""
    q = make()
    count = 0
    search = symmetry._first_assignment

    def counting_search(*args):
        nonlocal count
        count += 1
        return search(*args)

    monkeypatch.setattr(symmetry, "_first_assignment", counting_search)
    assert polytope_automorphisms(q).order == order
    assert count == calls


@given(
    st.sampled_from(PRODUCT_PAIRS + [(s,) for s in SUMMANDS]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_unimodular_image_keeps_orbit_sizes(names, rng):
    parts = [hull(SUMMANDS[s]) for s in names]
    q = parts[0] if len(parts) == 1 else free_sum(*parts)
    u = _elementary_unimodular(q.dim, rng)
    image = hull([mat_vec(u, v) for v in q.vertices])

    def sizes(p):
        g = polytope_automorphisms(p)
        return sorted(len(orbit_of(v, g.generators)) for v in p.vertices)

    assert sizes(image) == sizes(q)


def test_refuses_without_simplicial_facet():
    with pytest.raises(PolytopeError, match="automorphism search needs a simplicial facet"):
        polytope_automorphisms(fixtures.cube(3))


def test_refuses_non_unimodular_anchor():
    # the anchor edge (1, 2), (2, 1) has determinant -3: its anchor
    # coordinates would not be integral, so the search must refuse
    with pytest.raises(SingularMatrixError):
        polytope_automorphisms(hull([(0, 0), (2, 1), (1, 2)]))


def test_scan_forms_no_generator_matrix(monkeypatch, corpus_file):
    """The scan, the lct, alpha, the verdict and conj11 read the search's permutations only; a matrix
    is formed where ``generators`` is read."""
    dp = dual(fixtures.cx5())
    cyclic = smallest_cyclic_subgroup(automorphism_group(dp)[1])    # its closure reads generators
    formed = []
    generators = SymmetryGroup.generators
    monkeypatch.setattr(SymmetryGroup, "generators", property(lambda g: formed.append(g) or generators.fget(g)))
    reports = scan(corpus_file, ScanOptions(conjectures=True))
    assert sum(r["is_smooth_fano"] for r in reports) == 12
    groups = gq, gp = automorphism_group(dp)      # the dual side is a transposed view: no matrix
    assert lct(dp, gp) == alpha_invariant(dp) == full_verdict(dp, groups=groups).lct > lct(dp, cyclic)
    assert check_conj11(dp, gp) == check_conj11(dp)
    assert formed == []
    assert gp.generators == tuple(map(transpose, gq.generators)) and formed == [gp, gq]


# sha256 of repr((gq.generators, gp.generators)) from automorphism_group, first 16 hex digits, as
# recorded when the search still formed each generator's matrix (commit e0787bb)
MATRIX_DIGESTS = {
    "p2_pair": "6589c1a72cd11b9a", "p3_pair": "0f5f00e0668e27ad", "cross2_pair": "7c4ab449357753ca",
    "cross3_pair": "eab6ae881e473ea3", "hexagon_pair": "6668a3f52404f40e", "cx5_pair": "53e48def799e074f",
    "q1_pair": "26aa65b6401c4ea2", "q2_pair": "4372f2950fe7f40f", "unimodular_cx5_pair": "787d7cef15cb96ae",
}


@pytest.mark.parametrize("name", list(MATRIX_DIGESTS))
def test_matrices_on_demand_are_pinned(request, name):
    gq, gp = automorphism_group(request.getfixturevalue(name))
    digest = hashlib.sha256(repr((gq.generators, gp.generators)).encode()).hexdigest()
    assert digest[:16] == MATRIX_DIGESTS[name]


def test_transport_consistency(p2_pair):
    gq, gp = automorphism_group(p2_pair)
    assert gq.order == gp.order
    expected = {transpose(matrix_inverse_unimodular(a)) for a in closure(gq)}
    assert set(closure(gp)) == expected
    # dual-side elements permute the dual vertices
    vs = set(p2_pair.p.vertices)
    for a in closure(gp):
        assert {mat_vec(a, v) for v in vs} == vs


def test_fixed_space_trivial_group():
    g = trivial_group(3)
    fs = fixed_space(g)
    assert fs.dim == 3


def test_fixed_space_cross():
    g = polytope_automorphisms(fixtures.cross_polytope(2))
    assert fixed_space(g).dim == 0


def test_is_symmetric_fixtures(p2_pair, cross2_pair, hexagon_pair):
    for dp in (p2_pair, cross2_pair, hexagon_pair):
        assert full_verdict(dp).is_symmetric


def test_vertex_sum():
    assert vertex_sum(fixtures.cross_polytope(3)) == (0, 0, 0)
    assert vertex_sum(fixtures.simplex_fano(2)) == (0, 0)


def test_vertex_sum_fixed_by_group():
    q = fixtures.hexagon()
    g = polytope_automorphisms(q)
    s = vertex_sum(q)
    for a in closure(g):
        assert mat_vec(a, s) == s


@pytest.mark.parametrize("name", PAIRS + ["q1_pair"])
def test_transport_matches_inverse_transpose_oracle(request, name):
    gq, gp = groups_of(request, name)
    assert closure(gp) == inverse_transpose_oracle(gq)
    assert closure(transport_group(gp)) == closure(gq)
    for g in (gq, gp, trivial_group(gq.dim)):
        assert transport_group(transport_group(g)) == g != transport_group(g)


@pytest.mark.parametrize("name", PAIRS + ["q1_pair"])
def test_fixed_space_matches_stacked_oracle(request, name):
    gq, gp = groups_of(request, name)
    for g in (gq, gp, trivial_group(gq.dim), smallest_cyclic_subgroup(gp)):
        fs, oracle = fixed_space(g), stacked_fixed_space_oracle(g)
        assert (fs.dim, fs.basis) == (oracle.dim, oracle.basis)


@pytest.mark.parametrize("name", PAIRS + ["q1_pair"])
def test_lct_on_cyclic_subgroup(request, name):
    dp = request.getfixturevalue(name)
    _, gp = groups_of(request, name)
    c = smallest_cyclic_subgroup(gp)
    assert 1 < c.order < gp.order
    fs = stacked_fixed_space_oracle(c)
    if fs.dim == 0:
        expected = Fraction(0)
    else:
        witnesses = (
            dp.p.vertices if fs.dim == dp.p.dim
            else restrict_to_subspace(dp.p, fs.basis).ambient_vertices()
        )
        expected = max(Fraction(dot(w, v)) for w in witnesses for v in dp.q.vertices)
    assert max_pairing(dp, c) == expected
    assert lct(dp, g=c) == 1 / (1 + expected)
    # a larger group fixes less, so its slice and pairing shrink
    assert lct(dp, g=trivial_group(dp.p.dim)) <= lct(dp, g=c) <= lct(dp, g=gp)

