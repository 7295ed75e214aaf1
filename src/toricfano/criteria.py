"""Headline decision procedures for smooth toric Fano dual pairs.

Everything here is an exact comparison; no tolerances appear anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import dot
from .measures import coefficient_of_asymmetry, volume_and_barycenter
from .polytope import DualPair, restrict_to_subspace
from .symmetry import (
    FixedSpace,
    SymmetryGroup,
    automorphism_group,
    fixed_space,
)


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


def ke_test(dp: DualPair) -> bool:
    """Einstein-metric existence: dual barycenter exactly zero."""
    _, bary = volume_and_barycenter(dp.p)
    return all(b == 0 for b in bary)


def _p_side_group(dp, groups=None) -> SymmetryGroup:
    if groups is None:
        groups = automorphism_group(dp)
    return groups[1]


def _max_pairing(dp, fs_p: FixedSpace):
    if fs_p.dim == 0:
        return Fraction(0)
    if fs_p.dim == dp.p.dim:
        witnesses = dp.p.vertices
    else:
        witnesses = restrict_to_subspace(dp.p, fs_p.basis).ambient_vertices()
    return max(Fraction(dot(w, v)) for w in witnesses for v in dp.q.vertices)


def _alpha(dp, fs_q: FixedSpace, fs_p: FixedSpace):
    if fs_q.dim == 0:
        return Fraction(1)
    slice_p = restrict_to_subspace(dp.p, fs_p.basis)
    return 1 / (1 + coefficient_of_asymmetry(slice_p))


def max_pairing(dp: DualPair, g: SymmetryGroup):
    """max{<w, v> : w in vert(P_G), v in vert(Q)} for a dual-side subgroup g."""
    return _max_pairing(dp, fixed_space(g))


def lct(dp: DualPair, g: SymmetryGroup = None, groups=None) -> Fraction:
    """Group-invariant log canonical threshold 1/(1 + max pairing).

    ``g`` acts on the dual side; defaults to the full automorphism group.
    """
    if g is None:
        g = _p_side_group(dp, groups)
    return 1 / (1 + max_pairing(dp, g))


def alpha_invariant(dp: DualPair, groups=None) -> Fraction:
    """1 for symmetric pairs, else 1/(1 + asymmetry of the fixed-space slice)."""
    if groups is None:
        groups = automorphism_group(dp)
    gq, gp = groups
    return _alpha(dp, fixed_space(gq), fixed_space(gp))


def tian_condition(dp: DualPair, g: SymmetryGroup = None, groups=None) -> bool:
    """True iff the fixed-space slice of P is the single point {0}.

    Equivalent to lct > n/(n+1); since the slice is full-dimensional in the
    fixed space with the origin interior, it degenerates to {0} exactly when
    the fixed space itself is zero.
    """
    if g is None:
        g = _p_side_group(dp, groups)
    return fixed_space(g).dim == 0


def full_verdict(dp: DualPair, groups=None) -> KEVerdict:
    """One-pass verdict record; the groups and both fixed spaces are computed once."""
    if groups is None:
        groups = automorphism_group(dp)
    gq, gp = groups
    fs_q, fs_p = fixed_space(gq), fixed_space(gp)
    _, bary = volume_and_barycenter(dp.p)
    return KEVerdict(
        is_ke=all(b == 0 for b in bary),
        barycenter=bary,
        is_symmetric=fs_q.dim == 0,
        fixed_dim=fs_q.dim,
        fixed_dim_dual=fs_p.dim,
        fixed_basis=fs_q.basis,
        alpha=_alpha(dp, fs_q, fs_p),
        lct=1 / (1 + _max_pairing(dp, fs_p)),
        tian_holds=fs_p.dim == 0,
    )
