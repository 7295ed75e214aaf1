"""Headline decision procedures for smooth toric Fano dual pairs.

Everything here is an exact comparison; no tolerances appear anywhere.
The alpha-invariant and the group-invariant lct are one number, read off the
group average of vert(P) (see ``max_pairing`` and ``alpha_invariant``).
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import dot, mat_vec
from .measures import volume_and_barycenter
from .polytope import DualPair
from .symmetry import SymmetryGroup, automorphism_group, fixed_space, group_sum


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
    image of P under the group average pi = S/|G|, S = sum(a).  A linear
    function therefore has the same maximum over P_G as over the averages
    of vert(P), and S is an integer matrix.
    """
    s = group_sum(g)
    averages = {mat_vec(s, w) for w in dp.p.vertices}
    return Fraction(max(dot(w, v) for w in averages for v in dp.q.vertices), g.order)


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
    """One-pass verdict record; groups, both fixed spaces and alpha = lct are computed once."""
    if groups is None:
        groups = automorphism_group(dp)
    gq, gp = groups
    fs_q, fs_p = fixed_space(gq), fixed_space(gp)
    threshold = 1 / (1 + max_pairing(dp, gp))
    _, bary = volume_and_barycenter(dp.p)
    return KEVerdict(
        is_ke=all(b == 0 for b in bary),
        barycenter=bary,
        is_symmetric=fs_q.dim == 0,
        fixed_dim=fs_q.dim,
        fixed_dim_dual=fs_p.dim,
        fixed_basis=fs_q.basis,
        alpha=threshold,
        lct=threshold,
        tian_holds=fs_p.dim == 0,
    )
