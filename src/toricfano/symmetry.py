"""Lattice automorphism groups of polytopes and their fixed subspaces.

The search anchors on one unimodular facet of the Fano-side polytope: every
automorphism maps that facet's vertex basis onto an ordered vertex tuple of
some facet, so candidates are enumerated facet by facet with backtracking.
Two invariants prune the search: a vertex's sorted profile of facet values,
and pairwise common-facet counts.
"""

from dataclasses import dataclass

from .linalg import (
    dot,
    identity,
    kernel_basis,
    mat_mul,
    mat_vec,
    matrix_inverse_unimodular,
    transpose,
)
from .polytope import DualPair, LatticePolytope, PolytopeError


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite group of unimodular matrices mapping a polytope onto itself."""

    dim: int
    elements: tuple        # sorted tuple of matrices (tuples of row tuples)
    polytope: LatticePolytope | None = None

    @property
    def order(self):
        return len(self.elements)


@dataclass(frozen=True)
class FixedSpace:
    dim: int
    basis: tuple           # primitive integer vectors, possibly empty


def trivial_group(dim, polytope=None):
    return SymmetryGroup(dim=dim, elements=(identity(dim),), polytope=polytope)


def polytope_automorphisms(q: LatticePolytope, prune=True) -> SymmetryGroup:
    """Full group of unimodular maps permuting vert(q).

    Requires some facet of q to have exactly ``dim`` vertices (true for every
    smooth Fano polytope).  ``prune=False`` disables both search invariants;
    the result must not change (used as an oracle in the test suite).
    """
    n = q.dim
    verts = q.vertices
    vindex = {v: i for i, v in enumerate(verts)}
    facets = q.facets
    anchor = next((f for f in facets if len(f.vertex_indices) == n), None)
    if anchor is None:
        raise PolytopeError("automorphism search needs a simplicial facet")

    profiles = []
    for v in verts:
        profiles.append(tuple(sorted(dot(f.normal, v) for f in facets)))
    nv = len(verts)
    common = [[0] * nv for _ in range(nv)]
    for f in facets:
        inc = sorted(f.vertex_indices)
        for a in inc:
            for b in inc:
                common[a][b] += 1

    base = sorted(anchor.vertex_indices)
    b0 = transpose([verts[i] for i in base])  # columns are the anchor basis
    b0_inv = matrix_inverse_unimodular(b0)

    vertex_set = set(verts)
    invariants = (profiles, common) if prune else None
    found = set()
    for facet in facets:
        targets = sorted(facet.vertex_indices)
        for assignment in _assignments(base, targets, [], invariants):
            w = transpose([verts[i] for i in assignment])
            a = mat_mul(w, b0_inv)
            if all(mat_vec(a, v) in vertex_set for v in verts):
                found.add(a)

    return SymmetryGroup(dim=n, elements=tuple(sorted(found)), polytope=q)


def _assignments(base, targets, assignment, invariants):
    """Each ordered choice of distinct targets for ``base`` extending ``assignment``.

    ``invariants`` is None or (profiles, common): then a target must match
    its source's facet-value profile and common-facet counts.
    """
    pos = len(assignment)
    if pos == len(base):
        yield assignment
        return
    src = base[pos]
    for t in targets:
        if t in assignment:
            continue
        if invariants is not None:
            profiles, common = invariants
            if profiles[t] != profiles[src]:
                continue
            if any(common[t][assignment[j]] != common[src][base[j]] for j in range(pos)):
                continue
        assignment.append(t)
        yield from _assignments(base, targets, assignment, invariants)
        assignment.pop()


def transport_group(g: SymmetryGroup, polytope=None) -> SymmetryGroup:
    """Dual-side action of the group, the set of inverse-transposes.

    ``g.elements`` must be a group (closed under products and inverses).
    Then {a^-T : a in G} = {b^T : b in G} with b = a^-1, so the image is
    the set of transposes and no matrix is inverted.
    """
    elems = tuple(sorted(transpose(a) for a in g.elements))
    return SymmetryGroup(dim=g.dim, elements=elems, polytope=polytope)


def automorphism_group(dp: DualPair, prune=True):
    """Groups of the Fano side and the dual side of a dual pair."""
    gq = polytope_automorphisms(dp.q, prune=prune)
    gp = transport_group(gq, polytope=dp.p)
    return gq, gp


def fixed_space(g: SymmetryGroup) -> FixedSpace:
    """Common fixed subspace, as a primitive integer basis.

    ``g.elements`` must be a group (closed under products and inverses).
    Then the Reynolds sum R = sum(a) - |G|*I has kernel Fix(G): Rx = 0 says
    x is its own group average, which is fixed.  So R has the same row
    space, hence the same RREF and basis, as all rows of every a - I.
    """
    n, order = g.dim, len(g.elements)
    reynolds = [
        [sum(a[i][j] for a in g.elements) - (order if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    basis = kernel_basis(reynolds)
    return FixedSpace(dim=len(basis), basis=tuple(basis))


def is_symmetric(dp: DualPair, groups=None) -> bool:
    """True iff only the origin is fixed by the whole automorphism group.

    The fixed subspace is rational, so it contains a nonzero lattice point
    iff it is nonzero; the test is a fixed-space dimension check.
    """
    if groups is None:
        groups = automorphism_group(dp)
    gq, _ = groups
    return fixed_space(gq).dim == 0


def vertex_sum(q: LatticePolytope):
    """Coordinate-wise sum of all vertices."""
    out = [0] * q.dim
    for v in q.vertices:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)
