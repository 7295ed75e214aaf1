"""Lattice polytopes with paired vertex and facet representations.

Facet inequalities use the convention ``<normal, x> >= rhs`` with a primitive
integer normal, so a reflexive polytope is exactly one whose facets all read
``<u, x> >= -1``.  Vertex lists are kept lexicographically sorted; polytope
equality is equality of that canonical form.
"""

from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import index

from .linalg import (
    adjugate,
    bareiss_pivot,
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


@dataclass(frozen=True)
class Facet:
    normal: tuple          # primitive integer vector u
    rhs: int               # inequality <u, x> >= rhs
    vertex_indices: frozenset
    inverse: tuple = field(default=None, compare=False, repr=False)  # vertex matrix B: (det B, columns of |det B| B^-1)


@dataclass(frozen=True)
class LatticePolytope:
    dim: int
    vertices: tuple        # sorted tuple of integer coordinate tuples
    facets: tuple          # of Facet, sorted by (normal, rhs)
    cone_inverses: tuple = field(default=None, compare=False)  # Facet.inverse of each vertex cone

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

    Facet-to-facet gift wrapping (Chand-Kapur 1970; Swart 1985) over ``int``
    by basis exchange (Avis-Fukuda 1992; Avis 2000).  One kernel of the
    coordinates names n independent points, or shows that a hyperplane holds
    every point (``DimensionDeficiencyError``).  A dual simplex phase
    (``_first_basis``) exchanges them until they span a facet with the
    origin strictly on its inner side, and ``_wrap`` walks on from that
    tableau.  The walk needs the origin strictly inside: when a coordinate
    keeps one sign, or a pivot shows it is not, both run again on the points
    moved by the barycentre of the n and a point off their hyperplane, times
    n + 1.  ``Facet.inverse`` of a facet of n points off the origin, (det B,
    columns of |det B| B^-1) of its vertex matrix B, is read off the walk's
    tableau (one elimination per smooth Fano polytope), or afresh after a
    move.  A point is a vertex exactly when the facets through it meet in
    that point alone.  Exact, order-insensitive, robust to redundant points;
    coordinates are ints, the same positive number per point
    (``PointDimensionError``).
    """
    pts = sorted(set(tuple(index(x) for x in p) for p in points))
    if not pts:
        raise DimensionDeficiencyError("no input points")
    n = len(pts[0])
    if n == 0 or any(len(p) != n for p in pts):
        raise PointDimensionError("points need one common, positive number of coordinates")
    if len(pts) < n + 1:
        raise DimensionDeficiencyError("too few points to span the space")
    coords = list(zip(*pts))
    # the linear dependences, one ending at each point that depends on those before it; a hyperplane
    # holds every point when fewer than n are independent, or when all sum to 0 (<u, p> = 1 for some u)
    ker = kernel_basis(coords)
    if len(ker) > len(pts) - n or not any(map(sum, ker)):
        raise DimensionDeficiencyError("points do not affinely span the space")
    free = {max(compress(range(len(pts)), v)) for v in ker}
    start = [i for i in range(len(pts)) if i not in free]
    # the origin is strictly inside only if every coordinate takes both signs
    wrapped = _wrap(pts, _first_basis(pts, start)) if all(min(x) < 0 < max(x) for x in coords) else None
    if wrapped is None:
        # a dependence with a nonzero sum ends at a point off the hyperplane through start
        off = max(compress(range(len(pts)), next(v for v in ker if sum(v))))
        c = [sum(x) for x in zip(*(pts[i] for i in start + [off]))]
        moved = [tuple((n + 1) * x - y for x, y in zip(p, c)) for p in pts]
        wrapped = _wrap(moved, _first_basis(moved, start))
        if wrapped is None:
            raise HullInvariantError("a pivot found no point to stop at around an inner point")
        facets = {(u, (b + dot(u, c)) // (n + 1)): inc for (u, b), inc in wrapped[0].items()}
        wrapped = facets, {key: inverse_columns([pts[i] for i in sorted(inc)])
                           for key, inc in facets.items() if key[1] and len(inc) == n}
    facets, inverses = wrapped
    face_of = [None] * len(pts)    # smallest face through each point
    for inc in facets.values():
        for i in inc:
            face_of[i] = inc if face_of[i] is None else face_of[i] & inc
    verts = [i for i, face in enumerate(face_of) if face is not None and len(face) == 1]
    vert_of = {i: k for k, i in enumerate(verts)}
    same = len(verts) == len(pts)    # every point is a vertex, at its own index
    facets = tuple(Facet(u, b, inc if same else frozenset(vert_of[i] for i in inc if i in vert_of),
                         inverses.get((u, b))) for (u, b), inc in sorted(facets.items()))
    return LatticePolytope(n, tuple(pts[i] for i in verts), facets)


def _first_basis(pts, start):
    """The tableau of a basis spanning a facet, the origin strictly on its inner side.

    The dual simplex with Bland's rule (Bland 1977) on max <c, y> over
    <p, y> <= 1, c the sum of the n independent points ``start`` and
    <y, x> = 1 the basis's hyperplane: while some point has negative slack,
    the first such point k replaces the f_j of least <c, A_j> / lambda_j(p_k)
    over lambda_j(p_k) > 0, the lower position on a tie.  A point with no
    lambda_j > 0 has slack >= d, so a violated one is a broken tableau.
    """
    tab, m, n = _tableau(pts, start), len(pts), len(pts[0])
    while (k := next((k for k in range(m) if tab[2][n][k] < 0), None)) is not None:
        cols = tab[2]
        lam = {j: col[k] for j, col in enumerate(cols[:n]) if col[k] > 0}
        if not lam:
            raise HullInvariantError(f"point {pts[k]} violates basis {tab[0]} with no lambda_j > 0")
        big = lcm(*lam.values())    # <c, A_j> / lambda_j = <c, A_j> (big // lambda_j) / big
        tab = _exchange(tab, min(lam, key=lambda j: sum([cols[j][i] for i in start]) * (big // lam[j])), k)
    return tab


def _wrap(pts, tab):
    """Facets of the hull of points around the origin, as bases walked from the tableau ``tab``.

    A basis is n points of a facet; its tableau (``_tableau``) holds every
    point's coordinates lambda in it and its slack.  Crossing the ridge
    opposite f_j enters the point of least slack / -lambda_j over
    lambda_j < 0 (``_entering``): on the next facet, or on the same one
    beyond the ridge (slack 0, a degenerate pivot).  Ties go by Avis's
    lexicographic rule, as if each point moved toward the origin by its own
    infinitesimal, smaller the later it comes in ``rank`` (by index, then
    the first basis): the first basis is feasible and ranks last, so it is
    lexicographically feasible, every basis stays so, and the bases are the
    simplices of one triangulation of the boundary, each of its ridges in
    two.  A ridge, the basis's point bitmask less one bit, is closed for good
    by its second basis, and a basis on ``todo`` resumes at its next
    unchecked ridge: so a basis costs one ``_exchange``, O((n + 1)(m + n)),
    and O(n) bookkeeping.
    Bases of equal (u, b) are one facet.  Returns {(primitive inward u, b):
    frozenset of the points with <u, p> = b}, {(u, b): (det B, columns of
    |det B| B^-1) off the tableau} for facets of n points B, or None when a
    pivot finds no lambda_j < 0, as then the origin is not strictly inside.
    """
    n, m = len(pts[0]), len(pts)
    rank = [i + m * (i in tab[0]) for i in range(m)]
    facets, inverses, open_ridges, todo = {}, {}, set(), []
    mask = sum(1 << f for f in tab[0])    # the basis's points, as bits
    while tab:
        basis, d, cols, sign = tab
        slack = cols[n]
        on = [k for k in range(m) if not slack[k]]
        # lexicographically feasible: of a point on the hyperplane and the f_i with lambda_i != 0,
        # the first by rank is that point or has lambda_i < 0 (vacuous when the basis is all of it)
        if min(slack[:m]) < 0 or len(on) > n and any(k not in basis and min([(rank[k], d)] + [
                (rank[f], -col[k]) for f, col in zip(basis, cols) if col[k]])[1] < 0 for k in on):
            raise HullInvariantError(f"basis {basis} is not lexicographically feasible")
        g = gcd(*slack[m:])
        key = (tuple(slack[m:]) if g == 1 else tuple([x // g for x in slack[m:]]), -d // g)
        if key not in facets:
            facets[key] = frozenset(on)
            if len(on) == n:
                inverses[key] = (sign * d, tuple([tuple(col[m:]) for col in cols[:n]]))
        ridges = [mask ^ 1 << f for f in basis]
        open_ridges.symmetric_difference_update(ridges)    # a ridge's second basis closes it
        todo.append([tab, ridges, 0])    # and a cursor at its next unchecked ridge
        tab = None
        while todo and not tab:
            top, ridges, j = entry = todo[-1]
            while j < n and ridges[j] not in open_ridges:
                j += 1
            if j == n:
                todo.pop()
            elif (k := _entering(top, j, m, rank)) is None:
                return None
            else:
                entry[2] = j + 1
                tab, mask = _exchange(top, j, k), ridges[j] | 1 << k    # which closes ridge j
    return facets, inverses


def _tableau(pts, basis):
    """(basis, d, columns, sign) of n points with rows f_i, by one adjugate.

    The rows have (det, adj) = sign * (d, A), d > 0.  Column i holds
    lambda_i(p) = <p, A_i> for each point p, then A_i (<f_j, A_i> = d [i = j]).
    Column n, the slack, holds d - sum lambda(p), then -sum A_i: d/g times
    <u, p> - b for the facet <u, x> >= b through the rows, g = gcd(sum A_i).
    """
    d, adj = adjugate([pts[i] for i in basis])
    sign = 1 if d > 0 else -1
    cols = [[sign * dot(p, a) for p in pts] + [sign * x for x in a] for a in zip(*adj)]
    cols.append([sign * d * (i < len(pts)) - sum(x) for i, x in enumerate(zip(*cols))])
    return list(basis), sign * d, cols, sign


def _exchange(tab, j, k):
    """The tableau after f_j leaves the basis and point k enters it.

    The columns, the slack's too, take one ``bareiss_pivot`` on entry k of
    column j: the new d is |lambda_j(p_k)|, and column j stays, negated along
    with the sign if lambda_j(p_k) < 0; then it moves to k's sorted place.
    """
    basis, d, cols, sign = tab
    cols = list(cols)
    if cols[j][k] < 0:
        cols[j], sign = [-x for x in cols[j]], -sign
    d = bareiss_pivot(cols, j, k, d)
    basis = basis[:j] + basis[j + 1:]
    q = bisect(basis, k)
    basis.insert(q, k)
    cols.insert(q, cols.pop(j))
    return basis, d, cols, sign * (-1) ** abs(q - j)    # a flip per column passed


def _entering(tab, j, m, rank):
    """The point of least slack / -lambda_j over lambda_j < 0, or None if there is none.

    Ties go by the lexicographic rule: in ``rank`` order over the basis and
    the tied points, each f_i keeps the tied points of least lambda_i /
    lambda_j (over ``int``), and a tied point is dropped at its own turn.
    """
    basis, _, cols, _ = tab
    lam, slack = cols[j], cols[-1]
    ties, bs, bt = [], 0, -1
    for k in range(m):
        t = lam[k]
        if t < 0:
            s = slack[k]
            x = s * bt - bs * t    # > 0 when s / -t < bs / -bt
            if x > 0 or not ties:
                ties, bs, bt = [k], s, t
            elif x == 0:
                ties.append(k)
    for q in sorted(basis + ties, key=rank.__getitem__) if len(ties) > 1 else ():
        if q in basis:    # col[k] / lam[k] = col[k] (big // lam[k]) / big
            col, big = cols[basis.index(q)], lcm(*[lam[k] for k in ties])
            least = min(col[k] * (big // lam[k]) for k in ties)
            ties = [k for k in ties if col[k] * (big // lam[k]) == least]
        else:
            ties = [k for k in ties if k != q]
        if len(ties) == 1:
            break
    return ties[0] if ties else None


def is_smooth_fano(p: LatticePolytope):
    """Smooth Fano test with a certificate naming the first violation."""
    if not p.contains_origin_interior():
        return False, "origin is not strictly interior"
    for v in p.vertices:
        if gcd(*v) != 1:
            return False, f"vertex {v} is not primitive"
    for f in p.facets:
        vs = p.facet_vertices(f)
        if len(vs) != p.dim:
            return False, (
                f"facet with normal {f.normal} has {len(vs)} vertices, expected {p.dim}"
            )
        d = f.inverse[0] if f.inverse else det(vs)
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
    vertex i has Q's facet i's vertices as normals; P keeps its ``inverse``.
    """
    if not q.contains_origin_interior():
        raise PolytopeError("dualization needs the origin strictly interior")
    if not q.is_reflexive():
        raise PolytopeError("dual polytope would not be a lattice polytope")
    facets = tuple(Facet(v, -1, frozenset(i for i, f in enumerate(q.facets) if j in f.vertex_indices))
                   for j, v in enumerate(q.vertices))
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
