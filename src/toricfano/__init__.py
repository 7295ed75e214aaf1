"""Exact-arithmetic Kaehler-Einstein criteria for smooth toric Fano polytopes."""

from .criteria import KEVerdict, alpha_invariant, full_verdict, lct, tian_condition
from .measures import (
    EhrhartPolynomial,
    coefficient_of_asymmetry,
    codim2_volume,
    count_lattice_points,
    ehrhart,
    fano_index,
    relative_volume,
    volume_and_barycenter,
)
from .polytope import (
    DualPair,
    LatticePolytope,
    dual,
    faces_codim2,
    free_sum,
    hull,
    is_smooth_fano,
    restrict_to_subspace,
    segment,
)
from .symmetry import (
    FixedSpace,
    SymmetryGroup,
    automorphism_group,
    fixed_space,
    vertex_sum,
)

__all__ = [
    "KEVerdict",
    "alpha_invariant",
    "full_verdict",
    "lct",
    "tian_condition",
    "EhrhartPolynomial",
    "coefficient_of_asymmetry",
    "codim2_volume",
    "count_lattice_points",
    "ehrhart",
    "fano_index",
    "relative_volume",
    "volume_and_barycenter",
    "DualPair",
    "LatticePolytope",
    "dual",
    "faces_codim2",
    "free_sum",
    "hull",
    "is_smooth_fano",
    "restrict_to_subspace",
    "segment",
    "FixedSpace",
    "SymmetryGroup",
    "automorphism_group",
    "fixed_space",
    "vertex_sum",
]

__version__ = "0.1.0"
