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


def _p_side_group(dp, groups=None) -> SymmetryGroup:
    if groups is None:
        groups = automorphism_group(dp)
    return groups[1]


def _fixed_slice(dp, fs_p: FixedSpace):
    """P cut by the dual-side fixed space, built once per verdict.

    None when the fixed space is {0}; P itself when it is all of R^n.
    """
    if fs_p.dim == 0:
        return None
    if fs_p.dim == dp.p.dim:
        return dp.p
    return restrict_to_subspace(dp.p, fs_p.basis)


def _max_pairing(dp, slice_p):
    if slice_p is None:
        return Fraction(0)
    witnesses = slice_p.vertices if slice_p is dp.p else slice_p.ambient_vertices()
    return max(Fraction(dot(w, v)) for w in witnesses for v in dp.q.vertices)


def _alpha(fs_q: FixedSpace, slice_p):
    if fs_q.dim == 0:
        return Fraction(1)
    return 1 / (1 + coefficient_of_asymmetry(slice_p))


def max_pairing(dp: DualPair, g: SymmetryGroup):
    """max{<w, v> : w in vert(P_G), v in vert(Q)} for a dual-side subgroup g."""
    return _max_pairing(dp, _fixed_slice(dp, fixed_space(g)))


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
    return _alpha(fixed_space(gq), _fixed_slice(dp, fixed_space(gp)))


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
    """One-pass verdict record; the groups, both fixed spaces and the slice are computed once."""
    if groups is None:
        groups = automorphism_group(dp)
    gq, gp = groups
    fs_q, fs_p = fixed_space(gq), fixed_space(gp)
    slice_p = _fixed_slice(dp, fs_p)
    _, bary = volume_and_barycenter(dp.p)
    return KEVerdict(
        is_ke=all(b == 0 for b in bary),
        barycenter=bary,
        is_symmetric=fs_q.dim == 0,
        fixed_dim=fs_q.dim,
        fixed_dim_dual=fs_p.dim,
        fixed_basis=fs_q.basis,
        alpha=_alpha(fs_q, slice_p),
        lct=1 / (1 + _max_pairing(dp, slice_p)),
        tian_holds=fs_p.dim == 0,
    )
