"""Checkers for the conjectural inequality statements.

Each checker reports both exact sides of its comparison so the verdict can
be recomputed from the record.  The metric checkers read P's
``cone_measures`` record, ``measured``.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .linalg import dot
from .lp import feasible_point
from .measures import vertex_facets
from .polytope import DualPair


class Eq1Record(namedtuple("Eq1Record", "a_n_minus_2 third_of_codim2_vol holds equality")):
    __slots__ = ()


class FacetFeasibility(namedtuple("FacetFeasibility", "facet_index facet_normal feasible")):
    __slots__ = ()


class EhrhartBoundRecord(namedtuple("EhrhartBoundRecord",
                                    "vol bound holds equality simplex_shape known_bound known_bound_holds")):
    """``simplex_shape`` is None unless equality holds."""
    __slots__ = ()


class BishopRecord(namedtuple("BishopRecord", "index degree lhs bound holds sharp")):
    __slots__ = ()


def check_eq1(dp: DualPair, measured) -> Eq1Record:
    """Second-highest Ehrhart coefficient against a third of the ridge volume.

    ``measured`` is ``cone_measures(dp.p, with_ehrhart=True)``.
    """
    n = dp.p.dim
    if n < 2:
        raise ValueError("needs dimension at least 2")
    _, _, ridges, poly = measured
    a = poly.coefficients[n - 2]
    third = ridges / 3
    return Eq1Record(
        a_n_minus_2=a,
        third_of_codim2_vol=third,
        holds=a <= third,
        equality=a == third,
    )


def check_conj11(dp: DualPair):
    """Per-facet feasibility of the half-bound point criterion.

    For each facet F of P: is there x in aff(F) with <u_G, x> <= 1/2 for
    every facet G sharing a ridge with F?  The average of F's vertices lies
    on F, and it is such a point exactly when 2 <u_G, sum(F)> <= |F| for
    each G, which is checked over ``int``.  Only a facet where that witness
    fails gets an LP (``feasible_point``), which decides it either way.  The
    criterion assumes b_P = 0, which the entry's ``KEVerdict.is_ke`` records.
    """
    p = dp.p
    adjacency = facet_adjacency(p)
    out = []
    for i, f in enumerate(p.facets):
        normals = [p.facets[j].normal for j in sorted(adjacency[i])]
        s = tuple(map(sum, zip(*p.facet_vertices(f))))
        feasible = all(2 * dot(u, s) <= len(f.vertex_indices) for u in normals) or feasible_point(
            [(u, Fraction(1, 2)) for u in normals], [(f.normal, Fraction(f.rhs))]).status == "optimal"
        out.append(FacetFeasibility(facet_index=i, facet_normal=f.normal, feasible=feasible))
    return out


def facet_adjacency(p):
    """{facet index: indices of the facets sharing a ridge with it}.

    P is simple, so two facets share a ridge exactly when they share a
    vertex; ``vertex_facets`` reads the facets at each vertex off P's
    incidence and raises ``MeasureError`` if P is not simple.
    """
    at = vertex_facets(p)
    return {i: set().union(*(at[v] for v in f.vertex_indices)) - {i} for i, f in enumerate(p.facets)}


def check_ehrhart_bound(dp: DualPair, measured) -> EhrhartBoundRecord:
    """vol(P) against (n+1)^n/n! and the weaker closed-form bound.

    The bound is stated for a P whose only interior lattice point is the
    origin.  A reflexive P (every facet <u, x> >= -1 with u primitive) has
    exactly that, so a non-reflexive P raises ``ValueError``.
    """
    p = dp.p
    n = p.dim
    if not p.is_reflexive():
        raise ValueError("P is not reflexive")
    vol = measured[0]
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


def check_bishop(dp: DualPair, measured, index) -> BishopRecord:
    """Fano index times anticanonical degree against (n+1)^(n+1).

    ``index`` is ``fano_index(dp.p)``.
    """
    n = dp.p.dim
    degree = factorial(n) * measured[0]
    lhs = index * degree
    bound = (n + 1) ** (n + 1)
    return BishopRecord(
        index=index,
        degree=degree,
        lhs=lhs,
        bound=bound,
        holds=lhs <= bound,
        sharp=lhs == bound,
    )
