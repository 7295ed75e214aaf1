"""Lattice automorphism groups of polytopes and their fixed subspaces.

The search anchors on one unimodular facet of the Fano-side polytope, with
vertex basis B0: every automorphism maps that basis onto an ordered vertex
tuple (w_0, ..., w_{n-1}) of some facet, and is then A = W B0^-1.  Each
vertex is written once in the anchor basis, lambda_v = B0^-1 v (integral, as
B0 is unimodular), so its image A v = sum_i lambda_v,i w_i is fixed as soon
as w_0 .. w_k are, k being the last nonzero coordinate of lambda_v.  The
backtracking over facet tuples checks those images against vert(Q) at each
depth and drops a partial tuple at the first image that is not a vertex;
only a complete tuple builds its matrix.  Two invariants prune the search
as well: a vertex's sorted profile of facet values, and pairwise
common-facet counts.
"""

from dataclasses import dataclass

from .linalg import dot, identity, kernel_basis, mat_vec, matrix_inverse_unimodular, transpose
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


@dataclass(frozen=True)
class _Search:
    """What the backtracking reads, fixed once per polytope."""

    base: list             # anchor vertex indices, in basis order
    verts: tuple
    vertex_set: frozenset
    profiles: list         # per vertex, sorted facet values
    common: list           # per vertex pair, number of common facets
    checks: list           # checks[k]: sparse lambda_v of vertices fixed at depth k


def polytope_automorphisms(q: LatticePolytope) -> SymmetryGroup:
    """Full group of unimodular maps permuting vert(q).

    Requires some facet of q to have exactly ``dim`` vertices (true for every
    smooth Fano polytope), and refuses with ``SingularMatrixError`` when that
    facet's vertices are not a lattice basis.
    """
    n = q.dim
    verts = q.vertices
    facets = q.facets
    anchor = next((f for f in facets if len(f.vertex_indices) == n), None)
    if anchor is None:
        raise PolytopeError("automorphism search needs a simplicial facet")

    profiles = [tuple(sorted(dot(f.normal, v) for f in facets)) for v in verts]
    nv = len(verts)
    common = [[0] * nv for _ in range(nv)]
    for f in facets:
        inc = sorted(f.vertex_indices)
        for a in inc:
            for b in inc:
                common[a][b] += 1

    base = sorted(anchor.vertex_indices)
    b0_inv = matrix_inverse_unimodular(transpose([verts[i] for i in base]))
    # A basis vertex maps to its own w_k and the origin to itself, so
    # neither needs a check; every other vertex is checked at the depth of
    # its last nonzero anchor coordinate.
    checks = [[] for _ in range(n)]
    for j, v in enumerate(verts):
        lam = [(i, c) for i, c in enumerate(mat_vec(b0_inv, v)) if c]
        if lam and j not in base:
            checks[lam[-1][0]].append(lam)
    # column c of A = W B0^-1 is sum_i B0^-1[i][c] w_i
    columns = [[(i, b0_inv[i][c]) for i in range(n) if b0_inv[i][c]] for c in range(n)]

    search = _Search(base, verts, frozenset(verts), profiles, common, checks)
    found = set()
    for facet in facets:
        for images in _assignments(search, sorted(facet.vertex_indices), [], []):
            found.add(transpose([_combine(terms, images) for terms in columns]))

    return SymmetryGroup(dim=n, elements=tuple(sorted(found)), polytope=q)


def _combine(terms, images):
    """sum of c * images[i] over the sparse terms (i, c)."""
    if len(terms) == 1 and terms[0][1] == 1:
        return images[terms[0][0]]
    return tuple(map(sum, zip(*[[c * x for x in images[i]] for i, c in terms])))


def _assignments(search, targets, assignment, images):
    """Each vertex-preserving choice of distinct targets extending ``assignment``.

    Yields the images w_0 .. w_{n-1} of the anchor basis.  A target must
    match its source's facet-value profile and common-facet counts, and
    every vertex image it completes must be a vertex.
    """
    pos = len(assignment)
    if pos == len(search.base):
        yield images
        return
    src = search.base[pos]
    profiles, common = search.profiles, search.common
    for t in targets:
        if t in assignment or profiles[t] != profiles[src]:
            continue
        if any(common[t][assignment[j]] != common[src][search.base[j]] for j in range(pos)):
            continue
        images.append(search.verts[t])
        if all(_combine(lam, images) in search.vertex_set for lam in search.checks[pos]):
            assignment.append(t)
            yield from _assignments(search, targets, assignment, images)
            assignment.pop()
        images.pop()


def transport_group(g: SymmetryGroup, polytope=None) -> SymmetryGroup:
    """Dual-side action of the group, the set of inverse-transposes.

    ``g.elements`` must be a group (closed under products and inverses).
    Then {a^-T : a in G} = {b^T : b in G} with b = a^-1, so the image is
    the set of transposes and no matrix is inverted.
    """
    elems = tuple(sorted(transpose(a) for a in g.elements))
    return SymmetryGroup(dim=g.dim, elements=elems, polytope=polytope)


def automorphism_group(dp: DualPair):
    """Groups of the Fano side and the dual side of a dual pair."""
    gq = polytope_automorphisms(dp.q)
    gp = transport_group(gq, polytope=dp.p)
    return gq, gp


def fixed_space(g: SymmetryGroup) -> FixedSpace:
    """Common fixed subspace, as a primitive integer basis.

    ``g.elements`` must be a group (closed under products and inverses).
    Then the Reynolds sum R = sum(a) - |G|*I has kernel Fix(G): Rx = 0 says
    x is its own group average, which is fixed.  So R has the same row
    space, hence the same RREF and basis, as all rows of every a - I.
    """
    reynolds = [
        [x - (g.order if i == j else 0) for j, x in enumerate(row)]
        for i, row in enumerate(group_sum(g))
    ]
    basis = kernel_basis(reynolds)
    return FixedSpace(dim=len(basis), basis=tuple(basis))


def group_sum(g: SymmetryGroup):
    """Entrywise sum of the elements, |G| times the group average."""
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*g.elements))


def vertex_sum(q: LatticePolytope):
    """Coordinate-wise sum of all vertices."""
    out = [0] * q.dim
    for v in q.vertices:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)
