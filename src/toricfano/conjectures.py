"""Checkers for the conjectural inequality statements.

Each checker reports both exact sides of its comparison so the verdict can
be recomputed from the record.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .linalg import transpose
from .lp import feasible_point
from .measures import (
    codim2_volume,
    count_integer_points,
    ehrhart,
    fano_index,
    vertex_cones,
    volume_and_barycenter,
)
from .polytope import DualPair
from .symmetry import SymmetryGroup, automorphism_group, orbit_of


@dataclass(frozen=True)
class Eq1Record:
    a_n_minus_2: Fraction
    third_of_codim2_vol: Fraction
    holds: bool
    equality: bool


@dataclass(frozen=True)
class FacetFeasibility:
    facet_index: int
    facet_normal: tuple
    feasible: bool


@dataclass(frozen=True)
class EhrhartBoundRecord:
    vol: Fraction
    bound: Fraction
    holds: bool
    equality: bool
    simplex_shape: bool | None   # only meaningful when equality holds
    known_bound: Fraction
    known_bound_holds: bool


@dataclass(frozen=True)
class BishopRecord:
    index: int
    degree: Fraction
    lhs: Fraction
    bound: int
    holds: bool
    sharp: bool


@dataclass(frozen=True)
class ConjectureReport:
    eq1: Eq1Record | None
    conj11: tuple
    ehrhart_bound: EhrhartBoundRecord
    bishop: BishopRecord


def check_eq1(dp: DualPair) -> Eq1Record:
    """Second-highest Ehrhart coefficient against a third of the ridge volume."""
    p = dp.p
    n = p.dim
    if n < 2:
        raise ValueError("needs dimension at least 2")
    a = ehrhart(p).coefficients[n - 2]
    third = codim2_volume(p) / 3
    return Eq1Record(
        a_n_minus_2=a,
        third_of_codim2_vol=third,
        holds=a <= third,
        equality=a == third,
    )


def check_conj11(dp: DualPair, group: SymmetryGroup = None):
    """Per-facet feasibility of the half-bound point criterion.

    For each facet F of P: is there x in aff(F) with <u_G, x> <= 1/2 for
    every facet G sharing a ridge with F?  A lattice automorphism of P
    permutes its facets and keeps their ridges, so every facet of one orbit
    has the same answer: one LP is solved per orbit, at its least facet
    index.  ``group`` is the dual-side group (default: ``automorphism_group``);
    h maps the facet with normal u to the one with normal h^-T u, and the
    maps u -> h^-T u are the group of the transposed generators.
    """
    if group is None:
        group = automorphism_group(dp)[1]
    p = dp.p
    _, bary = volume_and_barycenter(p)
    if any(b != 0 for b in bary):
        warnings.warn("criterion hypothesis b_P = 0 does not hold", stacklevel=2)
    adjacency = facet_adjacency(p)
    index = {f.normal: i for i, f in enumerate(p.facets)}
    normal_maps = [transpose(h) for h in group.generators]
    feasible = [None] * len(p.facets)
    out = []
    for i, f in enumerate(p.facets):
        if feasible[i] is None:
            ineqs = [(p.facets[j].normal, Fraction(1, 2)) for j in sorted(adjacency[i])]
            ok = feasible_point(ineqs, [(f.normal, Fraction(f.rhs))]).status == "optimal"
            for u in orbit_of(f.normal, normal_maps):
                feasible[index[u]] = ok
        out.append(FacetFeasibility(facet_index=i, facet_normal=f.normal, feasible=feasible[i]))
    return out


def facet_adjacency(p):
    """{facet index: indices of the facets sharing a ridge with it}.

    P is simple, so two facets share a ridge exactly when they share a
    vertex, and the facets at each vertex come with its cone.
    """
    adjacency = {i: set() for i in range(len(p.facets))}
    for facets, _ in vertex_cones(p):
        for i, j in combinations(facets, 2):
            adjacency[i].add(j)
            adjacency[j].add(i)
    return adjacency


def check_ehrhart_bound(dp: DualPair, interior_check_max_dim=5) -> EhrhartBoundRecord:
    """vol(P) against (n+1)^n/n! and the weaker closed-form bound.

    P is reflexive by construction, so the origin is its only interior
    lattice point; in small dimensions this is re-verified by counting the
    lattice points of the strict system <u, x> >= rhs + 1.
    """
    p = dp.p
    n = p.dim
    if n <= interior_check_max_dim:
        strict = [(f.normal, f.rhs + 1) for f in p.facets]
        if count_integer_points(strict) != 1 or not p.contains_origin_interior():
            raise ValueError("origin is not the unique interior lattice point")
    vol, _ = volume_and_barycenter(p)
    bound = Fraction((n + 1) ** n, factorial(n))
    equality = vol == bound
    known = (n + 1) ** n * (1 - Fraction(n - 1, n) ** n)
    return EhrhartBoundRecord(
        vol=vol,
        bound=bound,
        holds=vol <= bound,
        equality=equality,
        simplex_shape=(p.n_vertices == n + 1) if equality else None,
        known_bound=known,
        known_bound_holds=vol <= known,
    )


def check_bishop(dp: DualPair) -> BishopRecord:
    """Fano index times anticanonical degree against (n+1)^(n+1)."""
    p = dp.p
    n = p.dim
    vol, _ = volume_and_barycenter(p)
    idx = fano_index(p)
    degree = factorial(n) * vol
    lhs = idx * degree
    bound = (n + 1) ** (n + 1)
    return BishopRecord(
        index=idx,
        degree=degree,
        lhs=lhs,
        bound=bound,
        holds=lhs <= bound,
        sharp=lhs == bound,
    )


def run_all(dp: DualPair, ehrhart_max_dim=5, group: SymmetryGroup = None) -> ConjectureReport:
    """Every check; eq1 is None outside dimensions 2 .. ``ehrhart_max_dim``.

    ``group`` is the dual-side group, passed to ``check_conj11``.
    """
    n = dp.p.dim
    return ConjectureReport(
        eq1=check_eq1(dp) if 2 <= n <= ehrhart_max_dim else None,
        conj11=tuple(check_conj11(dp, group)),
        ehrhart_bound=check_ehrhart_bound(dp, interior_check_max_dim=ehrhart_max_dim),
        bishop=check_bishop(dp),
    )
