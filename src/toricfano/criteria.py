"""Headline decision procedures for smooth toric Fano dual pairs.

Everything here is an exact comparison; no tolerances appear anywhere.
The alpha-invariant and the group-invariant lct are one number, the max
pairing of vert(P) with the group average of vert(Q): the average of a
vertex is the centroid of its orbit (see ``max_pairing`` and
``alpha_invariant``).
"""

from collections import namedtuple
from fractions import Fraction

from .linalg import dot, kernel_basis
from .measures import cone_measures
from .polytope import DualPair
from .symmetry import (SymmetryGroup, fixed_space, index_orbit, polytope_automorphisms, transport_group,
                       vertex_permutations)


class KEVerdict(namedtuple("KEVerdict", "barycenter fixed_basis lct")):
    """The three facts of a verdict; every other name is one of them by an identity.

    ``fixed_basis`` is a primitive basis of the Fano-side fixed space.  alpha
    is the group-invariant lct, Fix(G) and Fix(G^T) have one dimension, and
    Tian's condition holds exactly when that space is zero (``full_verdict``).
    """
    __slots__ = ()
    is_ke = property(lambda self: not any(self.barycenter))
    fixed_dim = fixed_dim_dual = property(lambda self: len(self.fixed_basis))
    is_symmetric = tian_holds = property(lambda self: not self.fixed_basis)
    alpha = property(lambda self: self.lct)


def orbit_sums(dp: DualPair, g: SymmetryGroup):
    """Nonzero sums of the orbits O of vert(Q) under the Fano-side g, and the max <w, sum(O)>/|O| on vert(P)."""
    verts, seen, sums, top = dp.q.vertices, set(), [], Fraction(0)
    perms = vertex_permutations(g, verts) if g.permutations is None else g.permutations
    for i in range(len(verts)):
        if i not in seen:
            orbit = index_orbit(i, perms)
            seen.update(orbit)
            s = tuple(map(sum, zip(*(verts[j] for j in orbit))))
            if any(s):      # a zero sum pairs to 0, a nonzero one to more: 0 is interior to P
                sums.append(s)
                top = max(top, Fraction(max(dot(w, s) for w in dp.p.vertices), len(orbit)))
    return sums, top


def max_pairing(dp: DualPair, g: SymmetryGroup) -> Fraction:
    """max{<w, v> : w in P_G, v in vert(Q)} for a dual-side group g.

    P is convex and G-invariant, so the slice P_G = P cut by Fix(G) is the
    image of P under the group average pi.  A linear function therefore has
    the same maximum over P_G as over pi(vert(P)).  <pi w, v> = <w, pi^T v>,
    and pi^T v is the centroid of v's orbit under g^T, the Fano-side group
    ``transport_group(g)``: ``orbit_sums`` pairs those centroids with vert(P).
    """
    return orbit_sums(dp, transport_group(g))[1]


def lct(dp: DualPair, g: SymmetryGroup) -> Fraction:
    """Group-invariant log canonical threshold 1/(1 + max pairing); ``g`` acts on the dual side."""
    return 1 / (1 + max_pairing(dp, g))


def alpha_invariant(dp: DualPair) -> Fraction:
    """1/(1 + asymmetry of P_G), which is the lct of the full group.

    The facets of P_G read <v, x> >= -1 for v in vert(Q), so -P_G lies in
    s*P_G exactly when <v, w> <= s for every such v and every w in P_G: the
    asymmetry of P_G is the max pairing.  When Fix(G) = {0} both are 0 and
    alpha is 1.  The max pairing is read off the orbits of the Fano-side
    group's own vertex permutations, as ``full_verdict`` reads it.
    """
    return 1 / (1 + orbit_sums(dp, polytope_automorphisms(dp.q))[1])


def tian_condition(dp: DualPair, g: SymmetryGroup) -> bool:
    """True iff the fixed-space slice of P is the single point {0}; ``g`` acts on the dual side.

    Equivalent to lct > n/(n+1); since the slice is full-dimensional in the
    fixed space with the origin interior, it degenerates to {0} exactly when
    the fixed space itself is zero.
    """
    return fixed_space(g).dim == 0


def full_verdict(dp: DualPair, groups=None, measured=None) -> KEVerdict:
    """One-pass verdict record: the orbit sums S of vert(Q) under G give Fix(G) and alpha = lct.

    Averaging maps R^n onto Fix(G) and vert(Q) spans R^n, so S spans Fix(G):
    the kernel of S's kernel, which is ``fixed_space(G)`` (a kernel basis
    depends on the kernel alone); S = {} needs no elimination.  Fix(G^T) has
    the same dimension, so Tian's condition is the symmetry verdict.
    Only ``groups[0]``, the Fano-side group, is read, and ``measured`` is
    ``cone_measures(dp.p)``; each is built here if not given.
    """
    if measured is None:
        measured = cone_measures(dp.p)
    sums, top = orbit_sums(dp, groups[0] if groups else polytope_automorphisms(dp.q))
    basis = tuple(kernel_basis(kernel_basis(sums), ncols=dp.q.dim)) if sums else ()
    return KEVerdict(measured[1], basis, 1 / (1 + top))
