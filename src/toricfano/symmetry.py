"""Lattice automorphism groups of polytopes and their fixed subspaces.

The search anchors on one unimodular facet of the Fano-side polytope, with
vertex basis B0 = (b_0, ..., b_{n-1}): every automorphism maps that basis
onto an ordered vertex tuple (w_0, ..., w_{n-1}), and is then A = W B0^-1,
B0^-1 having the columns of ``Facet.inverse`` as rows.  Each vertex is written
once in the anchor basis, lambda_v = B0^-1 v (integral, as B0 is
unimodular), so its image A v = sum_i lambda_v,i w_i is fixed as soon as
w_0 .. w_k are, k being the last nonzero coordinate of lambda_v.  The
backtracking over vertex tuples checks those images against vert(Q) at each
depth and drops a partial tuple at the first image that is not a vertex.
The Gram form prunes it (Bremner, Dutour Sikirić, Pasechnik, Rehn and
Schürmann 2014): with M = sum v v^T over vert(Q), A M A^T = M, so A keeps
the positive definite form W(v, w) = v^T adj(M) w.  So w_k must have b_k's
sorted row of W and W(w_k, w_i) = W(b_k, b_i) for i <= k; the images then
have B0's Gram matrix, so they are independent and A permutes vert(Q).

The group is kept as the generators of its stabilizer chain on the anchor
basis (Sims 1970): G_k fixes b_0 .. b_{k-1}.  Built for k = n-1 down to 0,
every generator found so far lies in G_k, and each candidate image t of b_k
outside the orbit of b_k under them gets one search for an element of G_k
with b_k -> t; a failed t rules out its orbit.  Then the orbit Delta_k of
b_k is all of G_k b_k, and |G| = prod |Delta_k|.  The group keeps the search's
vertex permutations of vert(Q), whose orbits the verdict reads, and the anchor
data; no matrix is formed until one is read, and no element list is built.
The dual side's group is the transposes, so it is the same record, flagged.
"""

from collections import namedtuple

from .linalg import SingularMatrixError, adjugate, dot, kernel_basis, mat_mul, mat_vec, transpose
from .polytope import DualPair, LatticePolytope, PolytopeError


class SymmetryGroup(namedtuple("SymmetryGroup", "dim order permutations anchor transposed", defaults=(False,))):
    """Finite group of unimodular matrices (tuples of row tuples) mapping a polytope onto itself.

    Either side holds the Fano-side group's ``permutations`` of vert(Q)'s indices and the
    ``anchor`` (vert(Q), base indices, B0^-1); the dual side's record is ``transposed``.
    """
    __slots__ = ()

    @property
    def generators(self):
        """A = [v_p(b)]^T B0^-1 for each permutation p, or A^T when ``transposed``, formed on each read."""
        verts, base, b0_inv = self.anchor
        mats = (mat_mul(transpose([verts[p[i]] for i in base]), b0_inv) for p in self.permutations)
        return tuple(map(transpose, mats) if self.transposed else mats)


class FixedSpace(namedtuple("FixedSpace", "dim basis")):
    """A fixed subspace and its primitive integer basis, possibly empty."""
    __slots__ = ()


def trivial_group(dim):
    """The group {I}: no permutation, and an empty anchor, as no vertex is named."""
    return SymmetryGroup(dim, 1, (), ((), (), ()))


def polytope_automorphisms(q: LatticePolytope) -> SymmetryGroup:
    """Full group of unimodular maps permuting vert(q), by its stabilizer chain.

    Anchors on the first simplicial facet off the origin, the first with a
    ``Facet.inverse``, and refuses with ``SingularMatrixError`` when its vertices
    are not a lattice basis.  W is symmetric, as M is, so only its W[i][j] with
    j >= i are multiplied out.  The permutations give ``check_conj11`` its orbits.
    """
    n = q.dim
    verts = q.vertices
    anchor = next((f for f in q.facets if f.inverse), None)
    if anchor is None:
        raise PolytopeError("automorphism search needs a simplicial facet off the origin")

    base = sorted(anchor.vertex_indices)
    d, b0_inv = anchor.inverse
    if d not in (1, -1):
        raise SingularMatrixError("the anchor facet's vertices are not a lattice basis")
    # A basis vertex maps to its own w_k and the origin to itself, so
    # neither needs a check; every other vertex is checked at the depth of
    # its last nonzero anchor coordinate.
    checks = [[] for _ in range(n)]
    for j, v in enumerate(verts):
        lam = [(i, c) for i, c in enumerate(mat_vec(b0_inv, v)) if c]
        if lam and j not in base:
            checks[lam[-1][0]].append((j, lam))
    _, adj = adjugate(mat_mul(transpose(verts), verts))      # adj(M), M = sum v v^T
    upper = [[dot(row, v) for v in verts[i:]] for i, row in enumerate(mat_mul(verts, adj))]
    gram = [[upper[j][i - j] for j in range(i)] + row for i, row in enumerate(upper)]    # mirrored
    rows = [sorted(row) for row in gram]
    targets = [[t for t in range(len(verts)) if rows[t] == rows[b]] for b in base]

    search = (base, verts, {v: i for i, v in enumerate(verts)}, gram, targets, checks)
    perms = []
    order = 1
    for k in reversed(range(n)):
        orbit = index_orbit(base[k], perms)
        ruled_out = set()
        for t in targets[k]:
            if t in orbit or t in ruled_out:
                continue
            perm = _first_assignment(search, base[:k], [t], list(range(len(verts))))
            if perm:
                perms.append(perm)
                orbit = index_orbit(base[k], perms)
            else:
                ruled_out.update(index_orbit(t, perms))
        order *= len(orbit)
    return SymmetryGroup(n, order, tuple(perms), (verts, tuple(base), b0_inv))


def _first_assignment(search, images, options, perm):
    """First vertex permutation whose anchor images extend ``images``, or None.

    ``images`` holds the indices of w_0 .. w_{k-1}, ``options`` those w_k may
    take (when None, every vertex with b_k's row of W).  A target must keep W
    against itself and every image so far, and each vertex image it completes
    must be a vertex; ``perm`` collects those images' indices.
    """
    base, verts, index, gram, targets, checks = search
    pos = len(images)
    if pos == len(base):
        return tuple(perm)
    src = base[pos]
    row = gram[src]
    for t in options or targets[pos]:
        to = gram[t]
        if to[t] != row[src] or any(to[w] != row[b] for w, b in zip(images, base)):
            continue
        images.append(t)
        perm[src] = t
        for j, lam in checks[pos]:
            perm[j] = index.get(tuple(map(sum, zip(*[[c * x for x in verts[images[i]]] for i, c in lam]))))
            if perm[j] is None:
                break
        else:
            found = _first_assignment(search, images, None, perm)
            if found is not None:
                return found
        images.pop()
    return None


def index_orbit(i, perms):
    """Orbit of index ``i`` under the permutations, breadth first."""
    orbit, seen = [i], {i}
    for x in orbit:
        for p in perms:
            y = p[x]
            if y not in seen:
                seen.add(y)
                orbit.append(y)
    return orbit


def transport_group(g: SymmetryGroup) -> SymmetryGroup:
    """Action of the group on the other side of the dual pair, the set of inverse-transposes.

    {a^-T : a in G} = {b^T : b in G} with b = a^-1, and transposing turns
    products around, so the transposes of the generators generate it: no
    matrix is formed, the order and permutations carry over, and ``transposed`` flips.
    """
    return g._replace(transposed=not g.transposed)


def automorphism_group(dp: DualPair):
    """Groups of the Fano side and the dual side of a dual pair: one search, and its transposed view."""
    gq = polytope_automorphisms(dp.q)
    return gq, transport_group(gq)


def fixed_space(g: SymmetryGroup) -> FixedSpace:
    """Common fixed subspace, as a primitive integer basis.

    The rows of a - I for every generator a are stacked into one matrix,
    and its kernel is Fix(G): a point fixed by each generator is fixed by
    the group.  The scan takes Fix(G) as the span of the orbit sums of
    vert(Q) instead (``criteria.full_verdict``), and this is its oracle.
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
