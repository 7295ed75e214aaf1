"""Lattice automorphism groups of polytopes and their fixed subspaces.

The search anchors on one unimodular facet of the Fano-side polytope, with
vertex basis B0 = (b_0, ..., b_{n-1}): every automorphism maps that basis
onto an ordered vertex tuple (w_0, ..., w_{n-1}) of some facet, and is then
A = W B0^-1.  Each vertex is written once in the anchor basis, lambda_v =
B0^-1 v (integral, as B0 is unimodular), so its image A v = sum_i
lambda_v,i w_i is fixed as soon as w_0 .. w_k are, k being the last nonzero
coordinate of lambda_v.  The backtracking over facet tuples checks those
images against vert(Q) at each depth and drops a partial tuple at the
first image that is not a vertex.  A vertex's sorted profile of facet
values prunes the search as well: a target must match its source's.

The group is kept as the generators of its stabilizer chain on the anchor
basis (Sims 1970): G_k fixes b_0 .. b_{k-1}.  Built for k = n-1 down to 0,
every generator found so far lies in G_k, and each candidate image t of b_k
outside the orbit of b_k under them gets one search for an element of G_k
with b_k -> t.  Then the orbit Delta_k of b_k is all of G_k b_k, and
|G| = prod |Delta_k|.  Orbits, fixed spaces and group averages are read
from the generators; no element list is built.
"""

from dataclasses import dataclass

from .linalg import dot, kernel_basis, mat_mul, mat_vec, matrix_inverse_unimodular, transpose
from .polytope import DualPair, LatticePolytope, PolytopeError


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite group of unimodular matrices mapping a polytope onto itself."""

    dim: int
    generators: tuple      # matrices (tuples of row tuples) generating the group
    order: int


@dataclass(frozen=True)
class FixedSpace:
    dim: int
    basis: tuple           # primitive integer vectors, possibly empty


def trivial_group(dim):
    return SymmetryGroup(dim=dim, generators=(), order=1)


@dataclass(frozen=True)
class _Search:
    """What the backtracking reads, fixed once per polytope."""

    base: list             # anchor vertex indices, in basis order
    verts: tuple
    vertex_set: frozenset
    profiles: list         # per vertex, sorted facet values
    checks: list           # checks[k]: sparse lambda_v of the vertices fixed at depth k


def polytope_automorphisms(q: LatticePolytope) -> SymmetryGroup:
    """Full group of unimodular maps permuting vert(q), by its stabilizer chain.

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

    search = _Search(base, verts, frozenset(verts), profiles, checks)
    generators = []
    order = 1
    for k in reversed(range(n)):
        b = verts[base[k]]
        orbit = orbit_of(b, generators)
        for t, w in enumerate(verts):
            if profiles[t] != profiles[base[k]] or w in orbit:
                continue
            fixed = [*base[:k], t]
            for facet in facets:
                if facet.vertex_indices.issuperset(fixed):
                    options = [[i] for i in fixed] + [sorted(facet.vertex_indices)] * (n - k - 1)
                    images = _first_assignment(search, options, [])
                    if images:
                        generators.append(mat_mul(transpose(images), b0_inv))
                        orbit = orbit_of(b, generators)
                        break
        order *= len(orbit)

    return SymmetryGroup(dim=n, generators=tuple(generators), order=order)


def _combine(terms, images):
    """sum of c * images[i] over the sparse terms (i, c)."""
    if len(terms) == 1 and terms[0][1] == 1:
        return images[terms[0][0]]
    return tuple(map(sum, zip(*[[c * x for x in images[i]] for i, c in terms])))


def _first_assignment(search, options, images):
    """First vertex-preserving images w_0 .. w_{n-1} extending ``images``, or None.

    ``options[k]`` lists the indices b_k may go to.  A target must be new,
    match its source's facet-value profile, and every vertex image it
    completes must be a vertex.
    """
    pos = len(images)
    if pos == len(search.base):
        return images
    src = search.base[pos]
    profiles = search.profiles
    for t in options[pos]:
        w = search.verts[t]
        if w in images or profiles[t] != profiles[src]:
            continue
        images.append(w)
        if all(_combine(lam, images) in search.vertex_set for lam in search.checks[pos]):
            found = _first_assignment(search, options, images)
            if found is not None:
                return found
        images.pop()
    return None


def orbit_of(point, generators):
    """Orbit of ``point`` under the finite group the matrices generate, breadth first."""
    orbit, seen = [point], {point}
    for x in orbit:
        for a in generators:
            y = mat_vec(a, x)
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return tuple(orbit)


def transport_group(g: SymmetryGroup) -> SymmetryGroup:
    """Dual-side action of the group, the set of inverse-transposes.

    {a^-T : a in G} = {b^T : b in G} with b = a^-1, and transposing turns
    products around, so the transposes of the generators generate it: no
    matrix is inverted and the order carries over.
    """
    return SymmetryGroup(g.dim, tuple(transpose(a) for a in g.generators), g.order)


def automorphism_group(dp: DualPair):
    """Groups of the Fano side and the dual side of a dual pair."""
    gq = polytope_automorphisms(dp.q)
    gp = transport_group(gq)
    return gq, gp


def fixed_space(g: SymmetryGroup) -> FixedSpace:
    """Common fixed subspace, as a primitive integer basis.

    Fix(G) is the common kernel of a - I over the generators a.  Those
    stacked rows span the annihilator of Fix(G), as do the rows of the
    Reynolds operator sum(G) - |G|*I, so both have one RREF and one basis.
    """
    rows = [[x - (i == j) for j, x in enumerate(row)]
            for a in g.generators for i, row in enumerate(a)]
    basis = kernel_basis(rows, ncols=g.dim)
    return FixedSpace(dim=len(basis), basis=tuple(basis))


def vertex_sum(q: LatticePolytope):
    """Coordinate-wise sum of all vertices."""
    out = [0] * q.dim
    for v in q.vertices:
        for i, x in enumerate(v):
            out[i] += x
    return tuple(out)
