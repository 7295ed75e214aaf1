"""Lattice polytopes with paired vertex and facet representations.

Facet inequalities use the convention ``<normal, x> >= rhs`` with a primitive
integer normal, so a reflexive polytope is exactly one whose facets all read
``<u, x> >= -1``.  Vertex lists are kept lexicographically sorted; polytope
equality is equality of that canonical form.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import index

from .linalg import (
    adjugate,
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
    once.  A facet's slack <u, p> - b is computed once and gives its
    incidence; a pivot reads it and scans only the points where it is > 0,
    so a simplicial polytope costs about O(#ridges * n * m).  The ridges of
    a simplicial facet are its drop-one subsets, and one fraction-free
    adjugate gives all their pivots; off the origin, (det, adj) of the
    vertex matrix (rows in vertex order) is kept as ``Facet.adjugate``.
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
    facets = tuple(Facet(u, b, frozenset(vert_of[i] for i in inc if i in vert_of), adjugates[u, b])
                   for (u, b), inc in sorted(facets.items()))
    return LatticePolytope(n, tuple(pts[i] for i in verts), facets)


def _wrap(pts):
    """Facets of the hull of distinct points that must affinely span the space.

    Returns {(primitive inward normal u, rhs b): frozenset of the indices of
    the points with <u, p> = b}, and {(u, b): ``_ridges``' (det, adj) or None}.
    """
    n = len(pts[0])
    if n == 1:
        lo = min(range(len(pts)), key=pts.__getitem__)
        hi = max(range(len(pts)), key=pts.__getitem__)
        facets = {((1,), pts[lo][0]): frozenset((lo,)), ((-1,), -pts[hi][0]): frozenset((hi,))}
        return facets, {(u, b): (u[0] * b, ((1,),)) if b else None for u, b in facets}
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
        u, b = _pivot(pts, slack, u, ker[0], r0)
        slack, face = _support(pts, u, b)
    facets = {(u, b): face}
    adjugates = {}
    todo = [((u, b), slack, face)]
    crossed = set()    # point sets of the ridges already pivoted across
    while todo:
        (u, b), slack, face = todo.pop()
        adjugates[u, b], ridges = _ridges(pts, u, b, slack, face)
        for ridge, r0, w in ridges:
            if ridge in crossed:
                continue
            crossed.add(ridge)
            key = _pivot(pts, slack, u, w, r0)
            if key not in facets:
                new_slack, facets[key] = _support(pts, *key)
                todo.append((key, new_slack, facets[key]))
    return facets, adjugates


def _support(pts, u, b):
    """Slack <u, p> - b of every point, and the indices where it is 0."""
    slack = [dot(u, p) - b for p in pts]
    return slack, frozenset(i for i, s in enumerate(slack) if s == 0)


def _ridges(pts, u, b, slack, face):
    """(det, adj) or None, and (ridge, point r0 on it, w) per ridge of facet <u, x> = b.

    ``ridge`` is the frozenset of the indices of the points on the ridge, the
    same from both facets through it.  ``w`` is constant on the ridge and
    larger on the rest of the facet, so u and w span the normals of the
    hyperplanes through it.  A simplicial facet takes one adjugate of its
    rows f_i - c: c is the origin when b != 0, the rows are the vertex
    matrix and its (det, adj) is returned; else c is the point of largest slack.
    """
    idx = sorted(face)
    n = len(u)
    if len(idx) == n:
        # column j of the adjugate is zero on every row but f_j - c, where it is the determinant
        c = (0,) * n if b else pts[slack.index(max(slack))]
        d, adj = adjugate([vec_sub(pts[i], c) for i in idx])
        sign = 1 if d > 0 else -1
        return (d, adj) if b else None, [(face - {i}, pts[idx[j - 1]], tuple(sign * x for x in col))
                                          for j, (i, col) in enumerate(zip(idx, zip(*adj)))]
    # drop a coordinate k with u_k != 0: injective on the facet's hyperplane
    k = next(j for j, x in enumerate(u) if x)
    sub, _ = _wrap([pts[i][:k] + pts[i][k + 1:] for i in idx])
    return None, [(frozenset(idx[j] for j in inc), pts[idx[min(inc)]], v[:k] + (0,) + v[k:])
                  for (v, _), inc in sub.items()]


def _pivot(pts, slack, u, w, r0):
    """Tilt the hyperplane <u, x> = <u, r0> about its flat where w is constant.

    ``slack`` holds s = <u, p - r0> for every point; each must be >= 0, with
    t = <w, p - r0> >= 0 where s = 0.  The hyperplane stops at the point p*
    with the smallest t/s over s > 0, so t is computed only there; the
    result (u', <u', r0>) has u' = s* w - t* u divided by its (positive)
    gcd, so it keeps pointing into the hull.  No s > 0 means every point is on it.
    """
    c = dot(w, r0)
    best_s = best_t = 0
    for p, s in zip(pts, slack):
        if s > 0:
            t = dot(w, p) - c
            if best_s == 0 or t * best_s < best_t * s:
                best_s, best_t = s, t
    if best_s == 0:
        raise DimensionDeficiencyError("points do not affinely span the space")
    normal = [best_s * x - best_t * y for x, y in zip(w, u)]
    g = 0
    for x in normal:
        g = gcd(g, x)
    normal = tuple(x // g for x in normal)
    return normal, dot(normal, r0)


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
