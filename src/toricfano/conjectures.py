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
from .measures import MeasureError
from .polytope import DualPair
from .symmetry import SymmetryGroup, index_orbit


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


def check_conj11(dp: DualPair, g: SymmetryGroup = None):
    """Per-facet feasibility of the half-bound point criterion, once per orbit of ``polytope_automorphisms(dp.q)``.

    For each facet F of P: is there x in aff(F) with <u_G, x> <= 1/2 for
    every facet G sharing a ridge with F?  P's facet i has normal vert(Q)[i],
    so g's ``permutations`` of vert(Q) permute P's facets, and a in g maps such
    an x to a^-T x on F's image.  Each orbit is decided at its least index (each
    facet alone if ``g`` is None).  It assumes b_P = 0 (``KEVerdict.is_ke``) and a simple P.
    """
    p, q = dp.p, dp.q
    if any(len(f.vertex_indices) != p.dim for f in q.facets):
        raise MeasureError("P is not simple: a facet of Q has more than n vertices")
    perms = () if g is None else g.permutations
    feasible = {}
    for i in range(len(p.facets)):
        if i not in feasible:
            feasible.update(dict.fromkeys(index_orbit(i, perms), _facet_feasible(dp, i)))
    return [FacetFeasibility(i, f.normal, feasible[i]) for i, f in enumerate(p.facets)]


def _facet_feasible(dp: DualPair, i):
    """Facet F = i: its vertex average, if 2 <u_G, sum(F)> <= |F| for each G over ``int``, else an LP decides.
    P is simple, so the G sharing a ridge with F are those at its vertices k: Q's facet k's vertices."""
    q, f = dp.q, dp.p.facets[i]
    corners = [q.facets[k] for k in f.vertex_indices]
    normals = [q.vertices[j] for j in sorted(set().union(*(c.vertex_indices for c in corners)) - {i})]
    s = tuple(map(sum, zip(*(c.normal for c in corners))))
    return all(2 * dot(u, s) <= len(corners) for u in normals) or feasible_point(
        [(u, Fraction(1, 2)) for u in normals], [(f.normal, Fraction(f.rhs))]).status == "optimal"


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
    known = Fraction((n + 1) ** n * (n**n - (n - 1) ** n), n**n)    # (n+1)^n (1 - ((n-1)/n)^n)
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
