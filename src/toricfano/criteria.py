"""Headline decision procedures for smooth toric Fano dual pairs.

Everything here is an exact comparison; no tolerances appear anywhere.
The alpha-invariant and the group-invariant lct are one number, read off the
group average of vert(P), which is the centroid of each vertex orbit (see
``max_pairing`` and ``alpha_invariant``).
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import dot
from .measures import cone_measures
from .polytope import DualPair
from .symmetry import SymmetryGroup, automorphism_group, fixed_space, index_orbit, vertex_permutations


@dataclass(frozen=True)
class KEVerdict:
    """The three facts of a verdict; every other name is one of them by an identity.

    alpha is the group-invariant lct, Fix(G) and Fix(G^T) have one dimension,
    and Tian's condition holds exactly when that space is zero (``full_verdict``).
    """
    barycenter: tuple
    fixed_basis: tuple     # primitive basis of the Fano-side fixed space
    lct: Fraction

    is_ke = property(lambda self: not any(self.barycenter))
    fixed_dim = fixed_dim_dual = property(lambda self: len(self.fixed_basis))
    is_symmetric = tian_holds = property(lambda self: not self.fixed_basis)
    alpha = property(lambda self: self.lct)


def max_pairing(dp: DualPair, g: SymmetryGroup) -> Fraction:
    """max{<w, v> : w in P_G, v in vert(Q)} for a dual-side group g.

    P is convex and G-invariant, so the slice P_G = P cut by Fix(G) is the
    image of P under the group average.  A linear function therefore has
    the same maximum over P_G as over the averages of vert(P).  The average
    of w is the centroid of its orbit O, found by index over g's vertex
    permutations, so each orbit gives the integer pairings <sum(O), v> over
    |O|.
    """
    verts = dp.p.vertices
    perms = vertex_permutations(g, verts)
    seen, best = set(), []
    for i in range(len(verts)):
        if i not in seen:
            orbit = index_orbit(i, perms)
            seen.update(orbit)
            s = tuple(map(sum, zip(*(verts[j] for j in orbit))))
            best.append(Fraction(max(dot(s, v) for v in dp.q.vertices), len(orbit)))
    return max(best)


def lct(dp: DualPair, g: SymmetryGroup) -> Fraction:
    """Group-invariant log canonical threshold 1/(1 + max pairing); ``g`` acts on the dual side."""
    return 1 / (1 + max_pairing(dp, g))


def alpha_invariant(dp: DualPair) -> Fraction:
    """1/(1 + asymmetry of P_G), which is the lct of the full group.

    The facets of P_G read <v, x> >= -1 for v in vert(Q), so -P_G lies in
    s*P_G exactly when <v, w> <= s for every such v and every w in P_G: the
    asymmetry of P_G is the max pairing.  When Fix(G) = {0} both are 0 and
    alpha is 1.
    """
    return lct(dp, automorphism_group(dp)[1])


def tian_condition(dp: DualPair, g: SymmetryGroup) -> bool:
    """True iff the fixed-space slice of P is the single point {0}; ``g`` acts on the dual side.

    Equivalent to lct > n/(n+1); since the slice is full-dimensional in the
    fixed space with the origin interior, it degenerates to {0} exactly when
    the fixed space itself is zero.
    """
    return fixed_space(g).dim == 0


def full_verdict(dp: DualPair, groups=None, measured=None) -> KEVerdict:
    """One-pass verdict record; groups, fixed space and alpha = lct computed once.

    The dual group is the transposes of the Fano-side group G, so its
    Reynolds operator is the transpose of G's.  A matrix and its transpose
    have one rank, so both fixed spaces have one dimension: Tian's condition
    is the symmetry verdict.  ``measured`` is ``cone_measures(dp.p)``, built
    here if not given; the verdict reads its barycenter.
    """
    if groups is None:
        groups = automorphism_group(dp)
    if measured is None:
        measured = cone_measures(dp.p)
    return KEVerdict(measured[1], fixed_space(groups[0]).basis, lct(dp, groups[1]))
