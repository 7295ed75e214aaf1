"""Headline decision procedures for smooth toric Fano dual pairs.

Everything here is an exact comparison; no tolerances appear anywhere.
The alpha-invariant and the group-invariant lct are one number, read off the
group average of vert(P), which is the centroid of each vertex orbit (see
``max_pairing`` and ``alpha_invariant``).
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import dot
from .measures import volume_and_barycenter
from .polytope import DualPair
from .symmetry import SymmetryGroup, automorphism_group, fixed_space, orbit_of


@dataclass(frozen=True)
class KEVerdict:
    is_ke: bool
    barycenter: tuple
    is_symmetric: bool
    fixed_dim: int
    fixed_dim_dual: int
    fixed_basis: tuple     # primitive basis of the Fano-side fixed space
    alpha: Fraction
    lct: Fraction
    tian_holds: bool


def max_pairing(dp: DualPair, g: SymmetryGroup) -> Fraction:
    """max{<w, v> : w in P_G, v in vert(Q)} for a dual-side group g.

    P is convex and G-invariant, so the slice P_G = P cut by Fix(G) is the
    image of P under the group average.  A linear function therefore has
    the same maximum over P_G as over the averages of vert(P).  The average
    of w is the centroid of its orbit O, so each orbit gives the integer
    pairings <sum(O), v> over |O|.
    """
    seen, best = set(), []
    for w in dp.p.vertices:
        if w not in seen:
            orbit = orbit_of(w, g.generators)
            seen.update(orbit)
            s = tuple(map(sum, zip(*orbit)))
            best.append(Fraction(max(dot(s, v) for v in dp.q.vertices), len(orbit)))
    return max(best)


def lct(dp: DualPair, g: SymmetryGroup = None) -> Fraction:
    """Group-invariant log canonical threshold 1/(1 + max pairing).

    ``g`` acts on the dual side; defaults to the full automorphism group.
    """
    if g is None:
        g = automorphism_group(dp)[1]
    return 1 / (1 + max_pairing(dp, g))


def alpha_invariant(dp: DualPair) -> Fraction:
    """1/(1 + asymmetry of P_G), which is the lct of the full group.

    The facets of P_G read <v, x> >= -1 for v in vert(Q), so -P_G lies in
    s*P_G exactly when <v, w> <= s for every such v and every w in P_G: the
    asymmetry of P_G is the max pairing.  When Fix(G) = {0} both are 0 and
    alpha is 1.
    """
    return lct(dp)


def tian_condition(dp: DualPair, g: SymmetryGroup = None) -> bool:
    """True iff the fixed-space slice of P is the single point {0}.

    Equivalent to lct > n/(n+1); since the slice is full-dimensional in the
    fixed space with the origin interior, it degenerates to {0} exactly when
    the fixed space itself is zero.
    """
    if g is None:
        g = automorphism_group(dp)[1]
    return fixed_space(g).dim == 0


def full_verdict(dp: DualPair, groups=None) -> KEVerdict:
    """One-pass verdict record; groups, fixed space and alpha = lct computed once.

    The dual group is the transposes of the Fano-side group G, so its
    Reynolds operator is the transpose of G's.  A matrix and its transpose
    have one rank, so both fixed spaces have one dimension: Tian's condition
    is the symmetry verdict.
    """
    if groups is None:
        groups = automorphism_group(dp)
    fs_q = fixed_space(groups[0])
    threshold = 1 / (1 + max_pairing(dp, groups[1]))
    _, bary = volume_and_barycenter(dp.p)
    return KEVerdict(
        is_ke=all(b == 0 for b in bary),
        barycenter=bary,
        is_symmetric=fs_q.dim == 0,
        fixed_dim=fs_q.dim,
        fixed_dim_dual=fs_q.dim,
        fixed_basis=fs_q.basis,
        alpha=threshold,
        lct=threshold,
        tian_holds=fs_q.dim == 0,
    )
