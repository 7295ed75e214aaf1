"""Exact rational feasibility of linear systems.

``feasible_point`` runs the dual simplex (Lemke 1954) on the tableau
``[A | -A | I | b]`` of <a, x> <= b, x = x+ - x- free, from the slack basis,
over ``int``: rows scaled by ``linalg.integer_rows``, each pivot row negated,
then ``linalg.bareiss_pivot``.  So each row is its basic entry (> 0) times
the rational row, with the ``Fraction`` tableau's signs.  The objective is
zero, so every basis is dual feasible and no first phase is needed.  Bland's
least-index rule (1977) picks the leaving row and the entering column, so
the pivots cannot cycle.  When no rhs is negative, x+ - x- is a point.  A row
with rhs < 0 and no negative entry is a Farkas witness: its slack block y is
that row of B^-1, so y >= 0, y.A = 0 (the x+ and x- blocks are y.A and -y.A)
and y.b = rhs < 0.  Both are read as rows over their basic entries and
checked exactly against the original system before return.
"""

from collections import namedtuple
from fractions import Fraction

from .linalg import bareiss_pivot, dot, integer_rows

#: hard pivot ceiling; Bland's rule terminates long before this on sane input
PIVOT_LIMIT = 200_000


class PivotLimitExceeded(Exception):
    pass


class SimplexInvariantError(Exception):
    """The solver broke one of its own invariants; a bug, not bad input."""


class LPResult(namedtuple("LPResult", "status point farkas", defaults=(None, None))):
    """status "optimal" (feasible) with a point, or "infeasible" with a Farkas witness."""
    __slots__ = ()


def _dual_simplex(cons, n):
    """Point or Farkas witness for <a, x> <= b over free variables x."""
    m = len(cons)
    rows = integer_rows([(*a, *(-x for x in a), *(int(j == i) for j in range(m)), b)
                         for i, (a, b) in enumerate(cons)])
    basis, d = list(range(2 * n, 2 * n + m)), 1
    for _ in range(PIVOT_LIMIT):
        r = min((i for i, row in enumerate(rows) if row[-1] < 0), key=basis.__getitem__, default=None)
        if r is None:
            xs = [Fraction(0)] * (2 * n)
            for row, bv in zip(rows, basis):
                if bv < 2 * n:
                    xs[bv] = Fraction(row[-1], row[bv])
            return LPResult(status="optimal", point=tuple(xs[j] - xs[n + j] for j in range(n)))
        pivot_row = rows[r]
        c = next((j for j, x in enumerate(pivot_row[:-1]) if x < 0), None)
        if c is None:
            e = pivot_row[basis[r]]
            return LPResult(status="infeasible", farkas=tuple(Fraction(x, e) for x in pivot_row[2 * n:-1]))
        rows[r] = [-x for x in pivot_row]
        d = bareiss_pivot(rows, r, c, d)
        basis[r] = c
    raise PivotLimitExceeded("simplex pivot ceiling reached")


def _certified(result, cons):
    """``result`` once its point or witness is checked against ``cons``."""
    if result.point is not None:
        ok = all(dot(a, result.point) <= b for a, b in cons)
    else:
        y = result.farkas
        ok = (min(y) >= 0 and dot(y, [b for _, b in cons]) < 0
              and not any(dot(y, column) for column in zip(*(a for a, _ in cons))))
    if not ok:
        raise SimplexInvariantError(f"failed to certify the {result.status} verdict")
    return result


def feasible_point(inequalities, equalities=()):
    """Any exact point satisfying <a,x> <= b and <c,x> = d systems.

    Returns an LPResult whose point is a feasible point, or an infeasible
    result with a Farkas witness.  Equalities are handled as constraint
    pairs.  An empty or ragged system has no one dimension and raises ``ValueError``.
    """
    cons = [(tuple(a), b) for a, b in inequalities]
    for a, b in equalities:
        cons.append((tuple(a), b))
        cons.append((tuple(-x for x in a), -b))
    if len({len(a) for a, _ in cons}) != 1:
        raise ValueError("a system needs rows, all of one length")
    return _certified(_dual_simplex(cons, len(cons[0][0])), cons)
