"""Exact metric and enumerative invariants of lattice polytopes.

Volumes use the Euclidean normalization (unit cube = 1); relative volumes of
faces use the induced-lattice normalization (fundamental domain of the
affine lattice = 1), the convention compatible with Ehrhart coefficients.

A scan makes one pass over each entry's vertex cones (``cone_measures``):
the volume and barycenter always, the Todd product and the ridge sum only
within ``--ehrhart-max-dim``.  Lattice points are counted slice by slice
over the hulls of P's projections to its leading coordinates
(``count_lattice_points``), in ``int`` throughout.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import factorial, gcd, lcm, perm, prod
from operator import index, mul

from .linalg import (
    dot,
    inverse_columns,
    kernel_basis,
    rref,
    saturated_kernel,
    vec_sub,
)
from .polytope import LatticePolytope, SubspacePolytope, hull


class MeasureError(Exception):
    pass


class LatticeInvariantError(MeasureError):
    """A face vertex off the induced lattice: ``relative_volume`` proves it cannot happen."""


class EhrhartPolynomial(namedtuple("EhrhartPolynomial", "coefficients")):
    """Coefficients a_0..a_n of k -> #(kP ∩ Z^n), as Fractions."""
    __slots__ = ()


def vertex_facets(p: LatticePolytope):
    """Per vertex (in vertex order), the indices of the facets through it, from P's incidence.

    Raises ``MeasureError`` unless P is simple: n facets at every vertex.
    """
    n = p.dim
    at = [[] for _ in p.vertices]
    for fi, f in enumerate(p.facets):
        for i in f.vertex_indices:
            at[i].append(fi)
    for v, facets in zip(p.vertices, at):
        if len(facets) != n:
            raise MeasureError(f"vertex {v} lies on {len(facets)} facets, expected {n}")
    return at


def vertex_cones(p: LatticePolytope):
    """Per vertex (in vertex order): its n facet indices and its n edges.

    P must be simple with unimodular vertex cones, as the dual of a smooth
    Fano polytope is.  The edges e_j are the columns of E_v = U_v^-1, where
    the rows of U_v are the normals of the facets through v, so
    <u_i, e_j> = delta_ij: e_j runs along the facets other than the j-th
    and is a lattice basis together with the others.  For P = Q*, U_v is
    the vertex matrix of Q's facet v, so ``dual`` hands over its
    ``Facet.inverse``, the edges as they stand; only a P built otherwise is
    inverted here (``inverse_columns``).
    """
    at = vertex_facets(p)
    out = []
    for v, facets, known in zip(p.vertices, at, p.cone_inverses or [None] * len(at)):
        d, edges = known or inverse_columns([p.facets[fi].normal for fi in facets])
        if d not in (1, -1):
            raise MeasureError(f"vertex {v} has a cone of determinant {d}, not unimodular")
        out.append((tuple(facets), edges))
    return tuple(out)


def cone_measures(p: LatticePolytope, with_ehrhart=False):
    """vol, barycenter, ridge volume and Ehrhart polynomial of P, from one pass over its vertex cones.

    With c = (1, k, ..., k^(n-1)) for the least k >= 2 that makes every
    a_j = -<c, e_j> nonzero, e_j the edges at a vertex v (``vertex_cones``),
    pi = prod_j a_j and s = <c, v>, the Brion-Lawrence formula on the
    unimodular vertex cones gives:

    - vol = sum_v s^n / (n! pi), and the integral of x is the c-gradient of
      sum_v s^(n+1) / ((n+1)! pi), that is
      sum_v [s^n v / (n! pi) + s^(n+1) / ((n+1)! pi) sum_j e_j / a_j];
    - the ridge volume: facets j and k through v cut out a ridge whose cone
      at v is spanned by the other n - 2 edges, a basis of the ridge's
      lattice; summed over the pairs at each vertex this is
      sum_v s^(n-2) e_2(a) / ((n-2)! pi), e_2 the second elementary
      symmetric polynomial;
    - the Ehrhart coefficients, with each factor 1 / (1 - e^(-a_j t)) of
      Brion's formula written as Td(a_j t) / (a_j t) (Khovanskii-Pukhlikov;
      Brion-Vergne): a_m = sum_v s^m T_(n-m)(a) / (m! pi), where T_j is the
      t^j coefficient of prod_j Td(a_j t), Td(x) = x / (1 - e^-x), read off
      the power sums of a (``_todd_power_sums``).

    Each sum adds ints weighted by D / pi, D the lcm of the |pi|, with T_j
    scaled by j! L^j (``_todd_series``), and makes one Fraction per output.  The
    ridge volume and the polynomial are None unless ``with_ehrhart``, which
    a scan sets only within its Ehrhart cap.  ``vertex_cones`` raises
    ``MeasureError`` unless P is simple with unimodular vertex cones.
    """
    n = p.dim
    cones = vertex_cones(p)
    # the loop ends by k = 2 max|e| + 1: each edge is then a nonzero string of balanced base-k digits
    k, terms = 2, []
    while len(terms) < len(cones):
        c, terms = [k**i for i in range(n)], []
        for v, (_, edges) in zip(p.vertices, cones):
            a = [-dot(c, e) for e in edges]
            if not (pi := prod(a)):
                k += 1
                break
            terms.append((v, edges, a, pi, dot(c, v)))
    d = lcm(*(t[3] for t in terms))
    if with_ehrhart:
        big, steps = _todd_series(n)
    vol = ridge = 0             # n! D vol and (n-2)! D times the ridge volume
    moment = [0] * n            # (n+1)! D^2 times the integral of x
    sums = [0] * (n + 1)        # m! (n-m)! D L^(n-m) a_m
    for v, edges, a, pi, s in terms:
        w = list(accumulate([s] * n, mul, initial=d // pi))    # D s^m / pi for m = 0..n
        vol += w[n]
        # the vertex's share of the moment: w[n] ((n+1) D v + s sum_j (D / a_j) e_j)
        g, h = (n + 1) * d * w[n], w[n] * s
        r = [d // x for x in a]
        side = [sum(map(mul, r, col)) for col in zip(*edges)]
        for k in range(n):
            moment[k] += g * v[k] + h * side[k]
        if with_ehrhart:
            e2, u = _todd_power_sums(a, steps)
            ridge += e2 * w[n - 2]  # e_2(a) = 0 when n < 2
            for m in range(n + 1):
                sums[m] += u[n - m] * w[m]
    ridges = polynomial = None
    if with_ehrhart:
        ridges = Fraction(ridge, d * factorial(n - 2)) if n >= 2 else Fraction(0)
        polynomial = EhrhartPolynomial(tuple(Fraction(x, factorial(m) * factorial(n - m) * d * big ** (n - m))
                                             for m, x in enumerate(sums)))
    return Fraction(vol, d * factorial(n)), tuple(Fraction(m, (n + 1) * d * vol) for m in moment), ridges, polynomial


@lru_cache(maxsize=256)
def volume_and_barycenter(p: LatticePolytope):
    """Exact Euclidean volume and barycenter by the Brion-Lawrence formula (``cone_measures``)."""
    return cone_measures(p)[:2]


def count_lattice_points(p: LatticePolytope, k=1):
    """Exact number of lattice points in the k-th dilate, counted slice by slice.

    The projection of P to its first d + 1 coordinates is the hull of the
    projected vertices, so ``hull`` gives level d its irredundant facets
    <u, x> >= b; the last level is P's own.  A facet with u_d = 0 is one of
    the level before, which every prefix already meets, so level d keeps
    the others.  Over a fixed prefix of d coordinates, with
    r = k b - <u, prefix>, coordinate d runs from the largest
    ceil(r / u_d) over u_d > 0 to the least floor(r / u_d) over u_d < 0:
    a bounded projection has facets of both signs in every coordinate.
    """
    if k < 1:
        raise MeasureError("dilation factor must be a positive integer")
    levels = [hull({v[: d + 1] for v in p.vertices}).facets for d in range(p.dim - 1)] + [p.facets]
    systems = [[(f.normal, k * f.rhs) for f in facets if f.normal[d]] for d, facets in enumerate(levels)]
    return _count_level(systems, 0, (), [b for _, b in systems[0]])


def _count_level(systems, d, prefix, rests):
    """Lattice points whose first d coordinates are ``prefix``.

    ``rests`` holds b - <u, prefix> for each facet (u, b) of ``systems[d]``;
    the next level's residuals are formed once here and updated by one
    product per coordinate value.
    """
    lo = max(-(-r // u[d]) for (u, _), r in zip(systems[d], rests) if u[d] > 0)
    hi = min(r // u[d] for (u, _), r in zip(systems[d], rests) if u[d] < 0)
    if hi < lo:
        return 0
    if d == len(systems) - 1:
        return hi - lo + 1
    base = [(b - sum(map(mul, u, prefix)), u[d]) for u, b in systems[d + 1]]
    total = 0
    for x in range(lo, hi + 1):
        total += _count_level(systems, d + 1, prefix + (x,), [r - c * x for r, c in base])
    return total


def count_lattice_points_bruteforce(p: LatticePolytope, k=1):
    """Bounding-box enumeration oracle (small dimensions only)."""
    n = p.dim
    los = [min(v[j] for v in p.vertices) * k for j in range(n)]
    his = [max(v[j] for v in p.vertices) * k for j in range(n)]
    box = product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
    return sum(all(dot(f.normal, x) >= k * f.rhs for f in p.facets) for x in box)


def _todd_series(n):
    """L and, for m = 0..n, the (k, H_k (m-1)!/(m-k)!) with k <= m and H_k = k l_k L^k nonzero.

    Td(x) = x / (1 - e^-x) = sum_k tau_k x^k inverts (1 - e^-x) / x = sum_k (-x)^k / (k+1)!, so
    tau_m = -sum_(k=1..m) (-1)^k tau_(m-k) / (k+1)!: each x_m = q^m tau_m is an int for q = (n+1)!.
    L is the lcm of the denominators of tau_0..tau_n.  tau_k = B_k / k! (B_1 = +1/2) and
    log Td(x) = sum_k l_k x^k = x/2 - sum_k B_2k x^2k / (2k (2k)!), so k l_k = -tau_k for k >= 2:
    H_1 = L tau_1 and H_k = -L^k tau_k, ints, and 0 for odd k >= 3.
    """
    q = factorial(n + 1)
    x = [1]
    for m in range(1, n + 1):
        x.append(-sum((-1) ** k * q ** (k - 1) * (q // factorial(k + 1)) * x[m - k] for k in range(1, m + 1)))
    big = lcm(*(q**m // gcd(y, q**m) for m, y in enumerate(x)))
    h = [0] + [(1 if k == 1 else -big ** (k - 1)) * (y * big // q**k) for k, y in enumerate(x) if k]
    return big, [[(k, h[k] * perm(m - 1, k - 1)) for k in range(1, m + 1) if h[k]] for m in range(n + 1)]


def _todd_power_sums(a, steps):
    """e_2(a) = (p_1^2 - p_2) / 2 and U_m = m! L^m T_m(a), m = 0..n, from the power sums p_k = sum_j a_j^k.

    prod_j Td(a_j t) = sum_m T_m t^m = exp(sum_k l_k p_k t^k), so m T_m = sum_k k l_k p_k T_(m-k), that is
    U_m = sum_k H_k (m-1)!/(m-k)! p_k U_(m-k) with the ``steps`` of ``_todd_series``; odd p_k, k >= 3, go unread.
    """
    sq = [x * x for x in a]
    ps, pw = [len(a), sum(a), sum(sq)], sq
    for _ in range(4, len(steps), 2):
        pw = list(map(mul, pw, sq))
        ps += (0, sum(pw))
    u = [1]
    for row in steps[1:]:
        x = 0
        for k, c in row:
            x += c * ps[k] * u[-k]
        u.append(x)
    return (ps[1] ** 2 - ps[2]) // 2, u


def ehrhart(p: LatticePolytope) -> EhrhartPolynomial:
    """Ehrhart polynomial of a reflexive polytope by the Todd operator on its vertex cones (``cone_measures``)."""
    if not p.is_reflexive():
        raise MeasureError("the Ehrhart polynomial is computed for reflexive polytopes only")
    return cone_measures(p, with_ehrhart=True)[3]


def relative_volume(face_vertices):
    """Lattice-normalized volume of a face in its affine hull.

    The face is mapped to Z^d via a basis of the full induced affine lattice
    (computed by unimodular column reduction) and measured there with
    unit fundamental domain.  A single vertex counts 1 by convention.  The
    face must be simple with unimodular vertex cones in that lattice, as
    every face of a smooth polytope is.  Each v - v0 is in Z^n ∩ L, L the
    differences' span and the normals' kernel, and ``saturated_kernel`` gives
    a Z-basis of Z^n ∩ L: no coordinate is fractional (``LatticeInvariantError``).
    """
    vs = [tuple(index(x) for x in v) for v in face_vertices]
    if len(vs) == 1:
        return Fraction(1)
    n = len(vs[0])
    v0 = vs[0]
    diffs = [vec_sub(v, v0) for v in vs[1:]]
    normals = kernel_basis(diffs, ncols=n)
    if not normals:
        return volume_and_barycenter(hull(vs))[0]
    d = n - len(normals)
    lattice_basis = saturated_kernel(normals)
    if len(lattice_basis) != d:
        raise MeasureError("induced lattice rank differs from the face dimension")
    # one RREF of [lattice basis | diffs]: its first d rows hold each diff's coordinates
    ech, _ = rref([list(b) + list(x) for b, x in zip(zip(*lattice_basis), zip(*diffs))])
    if any(x.denominator != 1 for row in ech[:d] for x in row[d:]):
        raise LatticeInvariantError("face vertex is not in the induced lattice")
    coords = [tuple(int(row[d + j]) for row in ech[:d]) for j in range(len(diffs))]
    coords.append((0,) * d)
    return volume_and_barycenter(hull(coords))[0]


def boundary_volume(p: LatticePolytope):
    """Sum of facet relative volumes (twice the a_{n-1} Ehrhart coefficient)."""
    total = Fraction(0)
    for f in p.facets:
        total += relative_volume(p.facet_vertices(f))
    return total


def codim2_volume(p: LatticePolytope):
    """Total relative volume of all ridges, by the Brion-Lawrence formula (``cone_measures``); 0 below dimension 2."""
    if p.dim < 2:
        return Fraction(0)
    return cone_measures(p, with_ehrhart=True)[2]


def coefficient_of_asymmetry(s):
    """max over facet normals a (normalized to <a,x> <= 1) and vertices w of <a, -w>.

    Equals the supremum-of-reach-ratios definition for polytopes with the
    origin interior; accepts a LatticePolytope or a SubspacePolytope.
    Redundant valid inequalities cannot increase the maximum, so any complete
    constraint list works.
    """
    if isinstance(s, LatticePolytope):
        verts = s.vertices
        cons = [(f.normal, Fraction(f.rhs)) for f in s.facets]
    elif isinstance(s, SubspacePolytope):
        verts = s.vertices
        cons = list(s.constraints)
    else:
        raise TypeError("expected a polytope")
    if not cons or any(b >= 0 for _, b in cons):
        raise MeasureError("origin must be strictly interior")
    best = None
    for a, b in cons:
        scaled = [Fraction(x) / b for x in a]  # b < 0: <scaled, x> <= 1
        for w in verts:
            val = -dot(scaled, w)
            if best is None or val > best:
                best = val
    return best


def fano_index(p: LatticePolytope):
    """Largest i such that (P - v)/i is still a lattice polytope.

    Equals the gcd of all coordinates of vertex differences, which is
    independent of the base vertex.
    """
    if p.n_vertices < 2:
        raise MeasureError("need at least two vertices")
    v0 = p.vertices[0]
    g = 0
    for w in p.vertices[1:]:
        if (g := gcd(g, *vec_sub(w, v0))) == 1:
            break
    return g
