"""Lattice automorphism groups of polytopes and their fixed subspaces.

The search anchors on one unimodular facet of the Fano-side polytope, with
vertex basis B0: every automorphism maps that basis onto an ordered vertex
tuple (w_0, ..., w_{n-1}) of some facet, and is then A = W B0^-1.  Each
vertex is written once in the anchor basis, lambda_v = B0^-1 v (integral, as
B0 is unimodular), so its image A v = sum_i lambda_v,i w_i is fixed as soon
as w_0 .. w_k are, k being the last nonzero coordinate of lambda_v.  The
backtracking over facet tuples checks those images against vert(Q) at each
depth and drops a partial tuple at the first image that is not a vertex;
only a complete tuple builds its matrix.  A vertex's sorted profile of
facet values prunes the search as well: a target must match its source's.

The check looks each image up by its vertex index, so a complete tuple also
says where its element moves every vertex.  The search lists every element,
so the least index each vertex reaches is the orbit map of vert(Q), recorded
as ``SymmetryGroup.orbits``.  By duality these are the facet orbits of P.
"""

from dataclasses import dataclass

from .linalg import dot, identity, kernel_basis, mat_vec, matrix_inverse_unimodular, transpose
from .polytope import DualPair, LatticePolytope, PolytopeError


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite group of unimodular matrices mapping a polytope onto itself."""

    dim: int
    elements: tuple        # sorted tuple of matrices (tuples of row tuples)
    orbits: tuple = None   # orbits[j]: least index in the orbit of vertex j (None: not searched)

    @property
    def order(self):
        return len(self.elements)


@dataclass(frozen=True)
class FixedSpace:
    dim: int
    basis: tuple           # primitive integer vectors, possibly empty


def trivial_group(dim):
    return SymmetryGroup(dim=dim, elements=(identity(dim),))


@dataclass(frozen=True)
class _Search:
    """What the backtracking reads, fixed once per polytope."""

    base: list             # anchor vertex indices, in basis order
    verts: tuple
    vertex_index: dict     # vertex -> its index in verts
    profiles: list         # per vertex, sorted facet values
    checks: list           # checks[k]: (j, sparse lambda_v_j) of vertices fixed at depth k


def polytope_automorphisms(q: LatticePolytope) -> SymmetryGroup:
    """Full group of unimodular maps permuting vert(q), with its vertex orbits.

    ``orbits[j]`` is the least index of a vertex in the orbit of vertex j.
    For a dual pair, ``p.facets[j].normal == q.vertices[j]`` (``dual`` sorts
    both lists alike) and A maps the facet with normal v to the one with
    normal Av, so this is also the orbit map of P's facets.

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
            checks[lam[-1][0]].append((j, lam))
    # column c of A = W B0^-1 is sum_i B0^-1[i][c] w_i
    columns = [[(i, b0_inv[i][c]) for i in range(n) if b0_inv[i][c]] for c in range(n)]

    search = _Search(base, verts, {v: j for j, v in enumerate(verts)}, profiles, checks)
    found = set()
    orbits = list(range(len(verts)))
    for facet in facets:
        for images, moves in _assignments(search, sorted(facet.vertex_indices), [], [], []):
            found.add(transpose([_combine(terms, images) for terms in columns]))
            for j, k in moves:
                if k < orbits[j]:
                    orbits[j] = k

    return SymmetryGroup(dim=n, elements=tuple(sorted(found)), orbits=tuple(orbits))


def _combine(terms, images):
    """sum of c * images[i] over the sparse terms (i, c)."""
    if len(terms) == 1 and terms[0][1] == 1:
        return images[terms[0][0]]
    return tuple(map(sum, zip(*[[c * x for x in images[i]] for i, c in terms])))


def _assignments(search, targets, assignment, images, moves):
    """Each vertex-preserving choice of distinct targets extending ``assignment``.

    Yields the images w_0 .. w_{n-1} of the anchor basis, and ``moves``: the
    pairs (vertex index, image index) of every vertex.  A target must match
    its source's facet-value profile, and every vertex image it completes
    must be a vertex.
    """
    pos = len(assignment)
    if pos == len(search.base):
        yield images, moves
        return
    src = search.base[pos]
    profiles = search.profiles
    index = search.vertex_index
    for t in targets:
        if t in assignment or profiles[t] != profiles[src]:
            continue
        images.append(search.verts[t])
        depth = len(moves)
        moves.append((src, t))
        for j, lam in search.checks[pos]:
            k = index.get(_combine(lam, images))
            if k is None:
                break
            moves.append((j, k))
        else:
            assignment.append(t)
            yield from _assignments(search, targets, assignment, images, moves)
            assignment.pop()
        del moves[depth:]
        images.pop()


def transport_group(g: SymmetryGroup) -> SymmetryGroup:
    """Dual-side action of the group, the set of inverse-transposes.

    ``g.elements`` must be a group (closed under products and inverses).
    Then {a^-T : a in G} = {b^T : b in G} with b = a^-1, so the image is
    the set of transposes and no matrix is inverted.  The orbits carry over:
    for the group of Q they are the facet orbits of P.
    """
    elems = tuple(sorted(transpose(a) for a in g.elements))
    return SymmetryGroup(dim=g.dim, elements=elems, orbits=g.orbits)


def automorphism_group(dp: DualPair):
    """Groups of the Fano side and the dual side of a dual pair."""
    gq = polytope_automorphisms(dp.q)
    gp = transport_group(gq)
    return gq, gp


def fixed_space(g: SymmetryGroup) -> FixedSpace:
    """Common fixed subspace, as a primitive integer basis.

    ``g.elements`` must be a group (closed under products and inverses).
    Then the Reynolds sum R = sum(a) - |G|*I has kernel Fix(G): Rx = 0 says
    x is its own group average, which is fixed.  So R has the same row
    space, hence the same RREF and basis, as all rows of every a - I.
    """
    return reynolds_kernel(group_sum(g), g.order)


def reynolds_kernel(s, order) -> FixedSpace:
    """Fix(G) as the kernel of S - |G|*I, from the group sum S and |G|."""
    reynolds = [
        [x - (order if i == j else 0) for j, x in enumerate(row)]
        for i, row in enumerate(s)
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
