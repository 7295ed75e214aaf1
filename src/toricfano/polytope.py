"""Lattice polytopes with paired vertex and facet representations.

Facet inequalities use the convention ``<normal, x> >= rhs`` with a primitive
integer normal, so a reflexive polytope is exactly one whose facets all read
``<u, x> >= -1``.  Vertex lists are kept lexicographically sorted; polytope
equality is equality of that canonical form.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, compress
from math import gcd
from operator import index, mul

from .linalg import (
    adjugate,
    det,
    dot,
    inverse_columns,
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


class HullInvariantError(PolytopeError):
    pass


class WithCache:
    """Record mixin: the last field is a cache derived from the others, which equality and hashing ignore."""
    __slots__ = ()
    __eq__ = lambda self, other: type(other) is type(self) and self[:-1] == other[:-1]
    __ne__ = lambda self, other: not self == other
    __hash__ = lambda self: hash(self[:-1])


class Facet(WithCache, namedtuple("Facet", "normal rhs vertex_indices inverse", defaults=(None,))):
    """<normal, x> >= rhs, normal primitive; ``inverse`` of vertex matrix B: (det B, columns of |det B| B^-1)."""
    __slots__ = ()


class LatticePolytope(WithCache, namedtuple("LatticePolytope", "dim vertices facets cone_inverses", defaults=(None,))):
    """Sorted integer vertex tuples, Facets sorted by (normal, rhs), ``Facet.inverse`` of each vertex cone."""
    __slots__ = ()

    @property
    def n_vertices(self):
        return len(self.vertices)

    def contains_origin_interior(self):
        return all(f.rhs < 0 for f in self.facets)

    def is_reflexive(self):
        return all(f.rhs == -1 for f in self.facets)

    def facet_vertices(self, facet):
        return [self.vertices[i] for i in sorted(facet.vertex_indices)]


class DualPair(namedtuple("DualPair", "q p")):
    """The Fano side q and its reflexive dual p = q*."""
    __slots__ = ()


def hull(points):
    """Convex hull of integer points: irredundant vertices, facets, incidence.

    The double-description method (Motzkin-Raiffa-Thompson-Thrall 1953;
    Fukuda-Prodon 1996) over ``int``.  One kernel of the coordinates names
    n + 1 affinely independent points, or shows that a hyperplane holds every
    point (``DimensionDeficiencyError``); ``_insertion_hull`` starts from their
    simplex and inserts the other points.  ``Facet.inverse`` of a facet of n
    points off the origin, (det B, columns of |det B| B^-1) of its vertex
    matrix B, is carried across ridges from one elimination per connected
    component (``_ridge_inverses``).  A point is a vertex exactly when the
    facets through it meet in that point alone.  Exact, order-insensitive,
    robust to redundant points; coordinates are ints, the same positive number
    per point (``PointDimensionError``).
    """
    pts = sorted(set(tuple(index(x) for x in p) for p in points))
    if not pts:
        raise DimensionDeficiencyError("no input points")
    n = len(pts[0])
    if n == 0 or any(len(p) != n for p in pts):
        raise PointDimensionError("points need one common, positive number of coordinates")
    if len(pts) < n + 1:
        raise DimensionDeficiencyError("too few points to span the space")
    # the linear dependences, one ending at each point that depends on those before it; a hyperplane
    # holds every point when fewer than n are independent, or when all sum to 0 (<u, p> = 1 for some u)
    ker = kernel_basis(list(zip(*pts)))
    if len(ker) > len(pts) - n or not any(map(sum, ker)):
        raise DimensionDeficiencyError("points do not affinely span the space")
    free = {max(compress(range(len(pts)), v)) for v in ker}
    # a dependence with a nonzero sum ends at a point off the hyperplane through the n independent points
    off = max(compress(range(len(pts)), next(v for v in ker if sum(v))))
    facets = _insertion_hull(pts, [i for i in range(len(pts)) if i not in free or i == off])
    rows = {key: _bits(inc) for key, inc in facets.items()}
    inverses = _ridge_inverses(pts, facets, rows)
    face_of = [-1] * len(pts)    # smallest face through each point, as a bitmask
    for key, inc in facets.items():
        for i in rows[key]:
            face_of[i] &= inc
    verts = [i for i, face in enumerate(face_of) if face == 1 << i]
    if len(verts) < len(pts):    # renumber the incidences by vertex
        vert_of = {i: k for k, i in enumerate(verts)}
        rows = {key: [vert_of[i] for i in on if i in vert_of] for key, on in rows.items()}
    facets = tuple(Facet(u, b, frozenset(rows[u, b]), inverses.get((u, b))) for u, b in sorted(facets))
    return LatticePolytope(n, tuple(pts[i] for i in verts), facets)


def _bits(mask):
    """The indices of the set bits of ``mask``, in increasing order."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _facet(u, b, inc):
    """(u, b, inc) with u made primitive; a zero u, which no two adjacent facets combine to, is a broken hull."""
    g = gcd(*u)
    if g == 1:
        return tuple(u), b, inc
    if not g:
        raise HullInvariantError(f"the hyperplane through points {_bits(inc)} has a zero normal")
    return tuple([x // g for x in u]), b // g, inc


def _insertion_hull(pts, simplex):
    """{(primitive inward u, b): bitmask of the points with <u, p> = b} for the facets of conv(pts).

    Column k of the adjugate of the simplex's rows (p, 1) is the facet
    opposite its point k, up to the sign of the determinant.  Each further
    point p, in index order, splits the facets by s = <u, p> - b: those with
    s < 0 go, and those with s = 0 take p into their incidence.  Each
    adjacent pair with s+ > 0 > s- gives the facet (s+ u- - s- u+,
    s+ b- - s- b+) through their common points and p.  Two facets are
    adjacent when they share n - 1 points and one of them holds only n, as
    those n are affinely independent; else when they share more and no
    third facet holds all of those.
    """
    n = len(pts[0])
    d, adj = adjugate([pts[i] + (1,) for i in simplex])
    sign = 1 if d > 0 else -1
    done = sum(1 << i for i in simplex)
    facets = [_facet([sign * x for x in col[:n]], -sign * col[n], done ^ 1 << k) for k, col in zip(simplex, zip(*adj))]
    for k, p in enumerate(pts):
        if done >> k & 1:
            continue
        bit, keep, pos, neg = 1 << k, [], [], []
        for f in facets:
            u, b, inc = f
            s = sum(map(mul, u, p)) - b
            if s > 0:
                keep.append(f)
                pos.append((s, u, b, inc))
            elif s < 0:
                neg.append((s, u, b, inc))
            else:
                keep.append((u, b, inc | bit))
        for sn, un, bn, im in neg:
            simple = im.bit_count() == n
            for sp, up, bp, ip in pos:
                c = ip & im
                w = c.bit_count()
                if w == n - 1 and (simple or ip.bit_count() == n) or w >= n - 1 and not any(
                        g[2] & c == c and g[2] != ip and g[2] != im for g in facets):
                    keep.append(_facet([sp * x - sn * y for x, y in zip(un, up)], sp * bn - sn * bp, c | bit))
        facets = keep
    return {(u, b): inc for u, b, inc in facets}


def _ridge_inverses(pts, facets, rows):
    """{(u, b): (det B, columns of |det B| B^-1)} for the facets of n points B off the origin.

    ``facets`` maps each facet to its bitmask and ``rows`` to its sorted
    points.  One ``inverse_columns`` per connected component of those facets
    across their common ridges; each crossing is a ``_cross``.
    """
    n = len(pts[0])
    links, ends = {}, {}    # facet: (row j, facet across the ridge without j, its row off it); ridge: (facet, row)
    for key, inc in facets.items():
        if key[1] and inc.bit_count() == n:
            links[key] = []
            for j, i in enumerate(rows[key]):
                ridge = inc ^ 1 << i
                if ridge in ends:
                    other, jo = ends.pop(ridge)
                    links[key].append((j, other, jo))
                    links[other].append((jo, key, j))
                else:
                    ends[ridge] = key, j
    inverses = {}
    for root in links:
        if root not in inverses:
            inverses[root] = inverse_columns([pts[i] for i in rows[root]])
            todo = [root]
            while todo:
                key = todo.pop()
                for j, other, jo in links[key]:
                    if other not in inverses:
                        inverses[other] = _cross(inverses[key], j, jo, pts[rows[other][jo]])
                        todo.append(other)
    return inverses


def _cross(inverse, j, q, point):
    """``Facet.inverse`` (det B, columns C of D B^-1, D = |det B|) once ``point`` b' replaces row j and moves to row q.

    With t = <b', C_j>: C_j becomes sgn(t) C_j and each other C_i becomes
    sgn(t) (t C_i - <b', C_i> C_j) / D, an exact division (Bareiss 1968), or
    C_i - t <b', C_i> C_j when D = |t| = 1; det becomes sgn(det B) t, negated
    per row b' passes on the way to row q.
    """
    d, cols = inverse
    cj = cols[j]
    t = sum(map(mul, point, cj))
    if not t:
        raise HullInvariantError(f"crossing a ridge to point {point} gives t = 0")
    e, a, big = (1 if t > 0 else -1), abs(t), abs(d)
    out = list(cols)
    for i, c in enumerate(cols):
        if i == j:
            continue
        w = e * sum(map(mul, point, c))
        if w or a != big:
            out[i] = tuple([x - w * y for x, y in zip(c, cj)] if a == big == 1 else
                           [(a * x - w * y) // big for x, y in zip(c, cj)])
    del out[j]
    out.insert(q, cj if e > 0 else tuple([-y for y in cj]))
    return (1 if d > 0 else -1) * t * (-1) ** abs(q - j), tuple(out)


def is_smooth_fano(p: LatticePolytope):
    """Smooth Fano test with a certificate naming the first violation."""
    if not p.contains_origin_interior():
        return False, "origin is not strictly interior"
    for v in p.vertices:
        if gcd(*v) != 1:
            return False, f"vertex {v} is not primitive"
    for f in p.facets:
        if len(f.vertex_indices) != p.dim:
            return False, f"facet with normal {f.normal} has {len(f.vertex_indices)} vertices, expected {p.dim}"
        d = f.inverse[0] if f.inverse else det(p.facet_vertices(f))
        if d not in (1, -1):
            return False, f"facet with normal {f.normal} has vertex matrix determinant {d}"
    return True, None


def dual(q: LatticePolytope) -> DualPair:
    """Dual pair (Q, P) with P = {y : <y, x> >= -1 for all x in Q}.

    Q must be reflexive (every rhs -1), as every smooth Fano polytope is; then
    P's vertex i is Q's facet normal i (sorted and distinct) and P's facet j
    is Q's vertex j, holding vertex i iff Q's facet i holds j.  The cone at
    vertex i has Q's facet i's vertices as normals; P keeps its ``inverse``.
    """
    if not q.contains_origin_interior():
        raise PolytopeError("dualization needs the origin strictly interior")
    if not q.is_reflexive():
        raise PolytopeError("dual polytope would not be a lattice polytope")
    at = [[] for _ in q.vertices]    # per vertex of Q, the facets of Q through it
    for i, f in enumerate(q.facets):
        for j in f.vertex_indices:
            at[j].append(i)
    facets = tuple(Facet(v, -1, frozenset(on)) for v, on in zip(q.vertices, at))
    return DualPair(q=q, p=LatticePolytope(q.dim, tuple(f.normal for f in q.facets), facets,
                                           tuple(f.inverse for f in q.facets)))


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


class SubspacePolytope(namedtuple("SubspacePolytope", "dim basis vertices constraints")):
    """A polytope sliced out of an ambient polytope by a linear subspace.

    Lives in coordinates with respect to ``basis`` (vectors in ambient
    coordinates); vertices may be rational.  ``constraints`` are (coeffs,
    rhs) meaning <coeffs, c> >= rhs and contain one entry per ambient facet
    (possibly redundant after restriction).
    """
    __slots__ = ()

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
