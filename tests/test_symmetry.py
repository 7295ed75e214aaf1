from fractions import Fraction

import pytest

from toricfano import fixtures
from toricfano.criteria import lct, max_pairing
from toricfano.linalg import (
    dot,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_inverse_unimodular,
    transpose,
)
from toricfano.polytope import dual, restrict_to_subspace
from toricfano.symmetry import (
    FixedSpace,
    SymmetryGroup,
    automorphism_group,
    fixed_space,
    is_symmetric,
    polytope_automorphisms,
    transport_group,
    trivial_group,
    vertex_sum,
)


# Differential oracles: the direct forms that transport_group and
# fixed_space replace by algebraic identities.  Slow on large groups.

def inverse_transpose_oracle(g):
    return tuple(sorted(transpose(matrix_inverse_unimodular(a)) for a in g.elements))


def stacked_fixed_space_oracle(g):
    """Kernel of every row of every a - I, stacked (n * |G| rows)."""
    n = g.dim
    rows = []
    for a in g.elements:
        for ra, ri in zip(a, identity(n)):
            row = tuple(x - y for x, y in zip(ra, ri))
            if any(row):
                rows.append(row)
    if not rows:
        return FixedSpace(dim=n, basis=tuple(identity(n)))
    basis = kernel_basis(rows, ncols=n)
    return FixedSpace(dim=len(basis), basis=tuple(basis))


def cyclic_subgroup(g, a):
    elems = {identity(g.dim)}
    x = a
    while x not in elems:
        elems.add(x)
        x = mat_mul(x, a)
    return SymmetryGroup(dim=g.dim, elements=tuple(sorted(elems)), polytope=g.polytope)


def smallest_cyclic_subgroup(g):
    """A cyclic subgroup of least order above 1."""
    ident = identity(g.dim)
    return min(
        (cyclic_subgroup(g, a) for a in g.elements if a != ident),
        key=lambda c: (c.order, c.elements),
    )


PAIRS = ["p2_pair", "p3_pair", "cross2_pair", "cross3_pair", "hexagon_pair", "cx5_pair"]


def groups_of(request, name):
    if name == "q1_pair":
        return request.getfixturevalue("q1_groups")
    return automorphism_group(request.getfixturevalue(name))


def test_cross_polytope_order_8():
    g = polytope_automorphisms(fixtures.cross_polytope(2))
    assert g.order == 8


def test_projective_plane_order_6():
    g = polytope_automorphisms(fixtures.simplex_fano(2))
    assert g.order == 6


def test_hexagon_order_12():
    g = polytope_automorphisms(fixtures.hexagon())
    assert g.order == 12


def test_closure_and_inverses():
    g = polytope_automorphisms(fixtures.simplex_fano(2))
    elems = set(g.elements)
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
    for a in g.elements:
        assert {mat_vec(a, v) for v in vs} == vs


def test_pruning_oracle():
    for q in [fixtures.simplex_fano(2), fixtures.cross_polytope(2), fixtures.simplex_fano(3), fixtures.cross_polytope(3)]:
        fast = polytope_automorphisms(q, prune=True)
        slow = polytope_automorphisms(q, prune=False)
        assert fast.elements == slow.elements


def test_transport_consistency(p2_pair):
    gq, gp = automorphism_group(p2_pair)
    assert gq.order == gp.order
    expected = {transpose(matrix_inverse_unimodular(a)) for a in gq.elements}
    assert set(gp.elements) == expected
    # dual-side elements permute the dual vertices
    vs = set(p2_pair.p.vertices)
    for a in gp.elements:
        assert {mat_vec(a, v) for v in vs} == vs


def test_fixed_space_trivial_group():
    g = trivial_group(3)
    fs = fixed_space(g)
    assert fs.dim == 3


def test_fixed_space_cross():
    g = polytope_automorphisms(fixtures.cross_polytope(2))
    assert fixed_space(g).dim == 0


def test_is_symmetric_fixtures(p2_pair, cross2_pair, hexagon_pair):
    assert is_symmetric(p2_pair)
    assert is_symmetric(cross2_pair)
    assert is_symmetric(hexagon_pair)


def test_vertex_sum():
    assert vertex_sum(fixtures.cross_polytope(3)) == (0, 0, 0)
    assert vertex_sum(fixtures.simplex_fano(2)) == (0, 0)


def test_vertex_sum_fixed_by_group():
    q = fixtures.hexagon()
    g = polytope_automorphisms(q)
    s = vertex_sum(q)
    for a in g.elements:
        assert mat_vec(a, s) == s


@pytest.mark.parametrize("name", PAIRS + ["q1_pair"])
def test_transport_matches_inverse_transpose_oracle(request, name):
    gq, gp = groups_of(request, name)
    assert gp.elements == inverse_transpose_oracle(gq)
    assert transport_group(gp).elements == gq.elements


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
    assert lct(dp, g=trivial_group(dp.p.dim, dp.p)) <= lct(dp, g=c) <= lct(dp, g=gp)

