"""Lattice polytopes with paired vertex and facet representations.

Facet inequalities use the convention ``<normal, x> >= rhs`` with a primitive
integer normal, so a reflexive polytope is exactly one whose facets all read
``<u, x> >= -1``.  Vertex lists are kept lexicographically sorted; polytope
equality is equality of that canonical form.
"""

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import index

from .linalg import (
    adjugate,
    bareiss_pivot,
    det,
    dot,
    kernel_basis,
    rank,
    solve_exact,
    vec_sub,
)


class PolytopeError(Exception):
    pass


class DimensionDeficiencyError(PolytopeError):
    pass


class DegenerateRestrictionError(PolytopeError):
    pass


class PointDimensionError(PolytopeError):
    pass


@dataclass(frozen=True)
class Facet:
    normal: tuple          # primitive integer vector u
    rhs: int               # inequality <u, x> >= rhs
    vertex_indices: frozenset
    adjugate: tuple = field(default=None, compare=False, repr=False)  # (det, adj) of the vertex matrix


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple        # sorted tuple of integer coordinate tuples
    facets: tuple          # of Facet, sorted by (normal, rhs)
    cone_adjugates: tuple = field(default=None, compare=False)  # (det, adj) of each vertex cone

    @property
    def n_vertices(self):
        return len(self.vertices)

    def contains_origin_interior(self):
        return all(f.rhs < 0 for f in self.facets)

    def is_reflexive(self):
        return all(f.rhs == -1 for f in self.facets)

    def facet_vertices(self, facet):
        return [self.vertices[i] for i in sorted(facet.vertex_indices)]

    def __repr__(self):
        return f"LatticePolytope(dim={self.dim}, vertices={self.n_vertices}, facets={len(self.facets)})"


@dataclass(frozen=True)
class DualPair:
    q: LatticePolytope     # Fano side
    p: LatticePolytope     # reflexive dual P = Q*


def hull(points):
    """Convex hull of integer points: irredundant vertices, facets, incidence.

    Facet-to-facet gift wrapping (Chand-Kapur 1970; Swart 1985) over ``int``.
    The supporting hyperplane ``x_0 >= min`` is pivoted about its face until
    that face is a facet; then each ridge of each facet found is pivoted to
    the neighbouring facet, until no new facet turns up.  A ridge is keyed
    by its point set, the same from both of its facets, so it is pivoted
    once.  Each facet carries its slack <u, p> - b, which gives its
    incidence; a simplicial one also carries a tableau, the coordinates of
    every point in its vertex basis.  Its pivots read that with no dot
    product, and a neighbour reached with no tie in the ratio test (so
    simplicial) takes it by one exact rank-one update (basis exchange:
    Avis-Fukuda 1992; Bareiss 1968).  So a smooth Fano polytope costs one
    elimination and O(#ridges * m + #facets * n * m).  Off the origin,
    (det, adj) of the vertex matrix, rows in vertex order, is ``Facet.adjugate``.
    A non-simplicial facet is projected along a coordinate its normal does
    not vanish on, and its ridges are the facets of that projection, found
    by the same wrapping one dimension down.  A point is a vertex exactly
    when the facets through it meet in that point alone.  Points in a
    hyperplane leave a pivot no point off it (``DimensionDeficiencyError``).
    Exact, order-insensitive, robust to redundant points; coordinates are
    ints, the same positive number per point (``PointDimensionError``).
    """
    pts = sorted(set(tuple(index(x) for x in p) for p in points))
    if not pts:
        raise DimensionDeficiencyError("no input points")
    n = len(pts[0])
    if n == 0 or any(len(p) != n for p in pts):
        raise PointDimensionError("points need one common, positive number of coordinates")
    if len(pts) < n + 1:
        raise DimensionDeficiencyError("too few points to span the space")

    facets, adjugates = _wrap(pts)
    face_of = [None] * len(pts)    # smallest face through each point
    for inc in facets.values():
        for i in inc:
            face_of[i] = inc if face_of[i] is None else face_of[i] & inc
    verts = [i for i, face in enumerate(face_of) if face is not None and len(face) == 1]
    vert_of = {i: k for k, i in enumerate(verts)}
    facets = tuple(Facet(u, b, frozenset(vert_of[i] for i in inc if i in vert_of), adjugates.get((u, b)))
                   for (u, b), inc in sorted(facets.items()))
    return LatticePolytope(n, tuple(pts[i] for i in verts), facets)


def _wrap(pts):
    """Facets of the hull of distinct points that must affinely span the space.

    Returns {(primitive inward normal u, rhs b): frozenset of the indices of
    the points with <u, p> = b}, and {(u, b): (det, adj) of the vertex matrix}
    for the simplicial facets off the origin.  A simplicial facet is
    eliminated afresh (``_tableau``) only when it is the first, when its c
    differs from its neighbour's, or when it is reached from a non-simplicial
    facet; else ``_exchange`` carries the tableau.  A tie in the ratio test
    makes the facet reached non-simplicial.
    """
    n = len(pts[0])
    if n == 1:
        lo = min(range(len(pts)), key=pts.__getitem__)
        hi = max(range(len(pts)), key=pts.__getitem__)
        facets = {((1,), pts[lo][0]): frozenset((lo,)), ((-1,), -pts[hi][0]): frozenset((hi,))}
        return facets, {(u, b): (u[0] * b, ((1,),)) for u, b in facets if b}
    u = (1,) + (0,) * (n - 1)
    b = min(p[0] for p in pts)
    slack, face = _support(pts, u, b)
    while True:
        # a normal w to the face inside the hyperplane exists until the face is a facet
        idx = sorted(face)
        r0 = pts[idx[0]]
        ker = kernel_basis([vec_sub(pts[i], r0) for i in idx[1:]] + [u])
        if not ker:
            break
        (u, b), _, _ = _pivot(pts, slack, u, ker[0], r0)
        slack, face = _support(pts, u, b)
    facets = {(u, b): face}
    adjugates = {}
    todo = [((u, b), slack, face, None)]
    crossed = set()    # point sets of the ridges already pivoted across
    while todo:
        (u, b), slack, face, tab = todo.pop()
        if len(face) > n:
            for ridge, r0, w in _ridges(pts, u, face):
                if ridge not in crossed:
                    crossed.add(ridge)
                    key, _, _ = _pivot(pts, slack, u, w, r0)
                    if key not in facets:
                        new_slack, facets[key] = _support(pts, *key)
                        todo.append((key, new_slack, facets[key], None))
            continue
        tab = tab or _tableau(pts, slack, face, b)
        basis, d, cols, sign, c = tab
        if b:    # c is the origin, so the rows are the vertex matrix, in vertex order
            adj = tuple(zip(*(col[-n:] for col in cols)))
            adjugates[u, b] = (d, adj) if sign > 0 else (-d, tuple(tuple(-x for x in r) for r in adj))
        for j, col in enumerate(cols):
            ridge = face - {basis[j]}
            if ridge not in crossed:
                crossed.add(ridge)
                key, k, (s, t, g) = _pivot(pts, slack, u, col[-n:], pts[basis[j - 1]], col)
                if key not in facets:
                    new_slack = [(s * y - t * x) // g for x, y in zip(slack, col)]
                    facets[key] = new_face = frozenset(i for i, x in enumerate(new_slack) if x == 0)
                    carry = len(new_face) == n and (None if key[1] else new_slack.index(max(new_slack))) == c
                    todo.append((key, new_slack, new_face, _exchange(tab, j, k) if carry else None))
    return facets, adjugates


def _support(pts, u, b):
    """Slack <u, p> - b of every point, and the indices where it is 0."""
    slack = [dot(u, p) - b for p in pts]
    return slack, frozenset(i for i, s in enumerate(slack) if s == 0)


def _tableau(pts, slack, face, b):
    """(basis, d, columns, sign, c) of a simplicial facet <u, x> = b, by one adjugate.

    c is the origin (None) when b != 0, else the point of largest slack.  The
    rows f_i - c, ``basis`` in order, have (det, adj) = sign * (d, A), d > 0.
    Column i holds lambda_i(p) = <p - c, A_i> for each point p, then A_i:
    lambda(p) / d is p - c in the rows, and A_i, lambda_i are the w, t of
    ``_pivot`` about the ridge opposite f_i (constant there, d on f_i).
    """
    c = None if b else slack.index(max(slack))
    shifted = pts if c is None else [vec_sub(p, pts[c]) for p in pts]
    basis = sorted(face)
    d, adj = adjugate([shifted[i] for i in basis])
    sign = 1 if d > 0 else -1
    return basis, sign * d, [[sign * dot(p, a) for p in shifted] + [sign * x for x in a]
                             for a in zip(*adj)], sign, c


def _exchange(tab, j, k):
    """The tableau after f_j leaves the basis and point k enters it.

    The columns take one ``bareiss_pivot`` on entry k of column j: the new d
    is |lambda_j(p_k)|, and column j stays, negated along with the sign if
    lambda_j(p_k) < 0; then column j moves to k's sorted place.
    """
    basis, d, cols, sign, c = tab
    cols = list(cols)
    if cols[j][k] < 0:
        cols[j], sign = [-x for x in cols[j]], -sign
    d = bareiss_pivot(cols, j, k, d)
    basis = basis[:j] + basis[j + 1:]
    q = bisect(basis, k)
    basis.insert(q, k)
    cols.insert(q, cols.pop(j))
    return basis, d, cols, sign * (-1) ** abs(q - j), c    # a flip per column passed


def _ridges(pts, u, face):
    """(ridge, point r0 on it, w) per ridge of a non-simplicial facet with normal u.

    ``ridge`` is the frozenset of the indices of the points on the ridge, the
    same from both facets through it.  ``w`` is constant on the ridge and
    larger on the rest of the facet, so u and w span the normals of the
    hyperplanes through it.  The facet is projected along a coordinate k with
    u_k != 0, injective on its hyperplane, and wrapped; a simplicial facet's
    ridges come from its tableau instead.
    """
    idx = sorted(face)
    k = next(j for j, x in enumerate(u) if x)
    sub, _ = _wrap([pts[i][:k] + pts[i][k + 1:] for i in idx])
    return [(frozenset(idx[j] for j in inc), pts[idx[min(inc)]], v[:k] + (0,) + v[k:])
            for (v, _), inc in sub.items()]


def _pivot(pts, slack, u, w, r0, tilt=None):
    """Tilt the hyperplane <u, x> = <u, r0> about its flat where w is constant.

    ``slack`` holds s = <u, p - r0> >= 0 for every point, and ``tilt`` (or, if
    None, a dot product where s > 0) t = <w, p - r0>, >= 0 where s = 0.  The
    hyperplane stops at the first p* of least t/s over s > 0; a tie puts more
    points on it.  Returns (u', <u', r0>), the index of p* and (s*, t*, g):
    g u' = s* w - t* u with g > 0 keeps u' pointing into the hull, and p's
    slack on it is (s* t - t* s) / g.  No s > 0: every point is on it.
    """
    if tilt is None:
        c = dot(w, r0)
        tilt = [dot(w, p) - c if s else 0 for p, s in zip(pts, slack)]
    best_s = best_t = 0
    for i, (s, t) in enumerate(zip(slack, tilt)):
        if s > 0 and (best_s == 0 or t * best_s < best_t * s):
            best_s, best_t, best = s, t, i
    if best_s == 0:
        raise DimensionDeficiencyError("points do not affinely span the space")
    normal = [best_s * x - best_t * y for x, y in zip(w, u)]
    g = gcd(*normal)
    normal = tuple(x // g for x in normal)
    return (normal, dot(normal, r0)), best, (best_s, best_t, g)


def is_smooth_fano(p: LatticePolytope):
    """Smooth Fano test with a certificate naming the first violation."""
    if not p.contains_origin_interior():
        return False, "origin is not strictly interior"
    for v in p.vertices:
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        if g != 1:
            return False, f"vertex {v} is not primitive"
    for f in p.facets:
        vs = p.facet_vertices(f)
        if len(vs) != p.dim:
            return False, (
                f"facet with normal {f.normal} has {len(vs)} vertices, expected {p.dim}"
            )
        d = f.adjugate[0] if f.adjugate else det(vs)
        if d not in (1, -1):
            return False, (
                f"facet with normal {f.normal} has vertex matrix determinant {d}"
            )
    return True, None


def dual(q: LatticePolytope) -> DualPair:
    """Dual pair (Q, P) with P = {y : <y, x> >= -1 for all x in Q}.

    Q must be reflexive (every rhs -1), as every smooth Fano polytope is; then
    P's vertex i is Q's facet normal i (sorted and distinct) and P's facet j
    is Q's vertex j, holding vertex i iff Q's facet i holds j.  The cone at
    vertex i has Q's facet i's vertices as normals; P keeps that adjugate.
    """
    if not q.contains_origin_interior():
        raise PolytopeError("dualization needs the origin strictly interior")
    if not q.is_reflexive():
        raise PolytopeError("dual polytope would not be a lattice polytope")
    facets = tuple(Facet(v, -1, frozenset(i for i, f in enumerate(q.facets) if j in f.vertex_indices))
                   for j, v in enumerate(q.vertices))
    return DualPair(q=q, p=LatticePolytope(q.dim, tuple(f.normal for f in q.facets), facets,
                                           tuple(f.adjugate for f in q.facets)))


def faces_codim2(p: LatticePolytope):
    """All ridges, each as (vertex index frozenset, (facet index, facet index)).

    Any polytope, simple or not; the scan reads the ridges of a simple one
    off its vertex cones (``measures.vertex_cones``) instead.
    """
    n = p.dim
    out = []
    for i, j in combinations(range(len(p.facets)), 2):
        s = p.facets[i].vertex_indices & p.facets[j].vertex_indices
        if len(s) < n - 1:
            continue
        vs = [p.vertices[k] for k in s]
        diffs = [vec_sub(v, vs[0]) for v in vs[1:]]
        if (n - 2 == 0 and len(s) == 1) or (diffs and rank(diffs) == n - 2):
            out.append((s, (i, j)))
    return tuple(out)


def free_sum(q1: LatticePolytope, q2: LatticePolytope) -> LatticePolytope:
    """conv(Q1 x 0, 0 x Q2) in block coordinates."""
    if not (q1.contains_origin_interior() and q2.contains_origin_interior()):
        raise PolytopeError("free sum needs the origin interior on both sides")
    z1 = (0,) * q1.dim
    z2 = (0,) * q2.dim
    pts = [v + z2 for v in q1.vertices] + [z1 + w for w in q2.vertices]
    return hull(pts)


def segment() -> LatticePolytope:
    return hull([(-1,), (1,)])


@dataclass(frozen=True)
class SubspacePolytope:
    """A polytope sliced out of an ambient polytope by a linear subspace.

    Lives in coordinates with respect to ``basis``; vertices may be rational.
    ``constraints`` are (coeffs, rhs) meaning <coeffs, c> >= rhs and contain
    one entry per ambient facet (possibly redundant after restriction).
    """

    dim: int
    basis: tuple           # subspace basis vectors in ambient coordinates
    vertices: tuple        # rational coordinate tuples w.r.t. basis
    constraints: tuple

    def ambient_vertices(self):
        out = []
        for c in self.vertices:
            v = [Fraction(0)] * len(self.basis[0]) if self.basis else []
            for cj, bj in zip(c, self.basis):
                v = [x + cj * y for x, y in zip(v, bj)]
            out.append(tuple(v))
        return out


def restrict_to_subspace(p: LatticePolytope, basis) -> SubspacePolytope:
    """P intersected with the span of ``basis``, in basis coordinates."""
    basis = [tuple(Fraction(x) for x in b) for b in basis]
    d = len(basis)
    if d == 0:
        if not p.contains_origin_interior():
            raise DegenerateRestrictionError("subspace misses the interior")
        return SubspacePolytope(dim=0, basis=(), vertices=((),), constraints=())
    if rank(basis) != d:
        raise DegenerateRestrictionError("basis is not linearly independent")
    if not p.contains_origin_interior():
        raise DegenerateRestrictionError("subspace misses the interior")
    cons = []
    for f in p.facets:
        coeffs = tuple(dot(f.normal, b) for b in basis)
        cons.append((coeffs, Fraction(f.rhs)))
    verts = set()
    for idx in combinations(range(len(cons)), d):
        a = [list(cons[i][0]) for i in idx]
        if rank(a) != d:
            continue
        x = solve_exact(a, [cons[i][1] for i in idx])
        if all(dot(c, x) >= b for c, b in cons):
            verts.add(tuple(x))
    return SubspacePolytope(
        dim=d,
        basis=tuple(basis),
        vertices=tuple(sorted(verts)),
        constraints=tuple(cons),
    )
