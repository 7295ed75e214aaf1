"""Exact rational feasibility of linear systems.

``feasible_point`` runs the first phase of the two-phase simplex on a dense
``Fraction`` tableau with Bland's anticycling rule: it minimizes the sum of
the artificial variables.  A zero minimum gives an exact feasible point; a
positive one gives a Farkas certificate of infeasibility, verified against
the original system before it is returned.
"""

from dataclasses import dataclass
from fractions import Fraction

#: hard pivot ceiling; Bland's rule terminates long before this on sane input
PIVOT_LIMIT = 200_000


class PivotLimitExceeded(Exception):
    pass


class SimplexInvariantError(Exception):
    """The solver broke one of its own invariants; a bug, not bad input."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" (feasible) | "infeasible"
    point: tuple | None = None
    farkas: tuple | None = None


class _Tableau:
    """min cost.y  s.t.  T y = rhs, y >= 0, with Bland's rule."""

    def __init__(self, rows, rhs, basis, cost, cost_rhs):
        self.rows = rows          # list of lists of Fraction
        self.rhs = rhs            # list of Fraction, all >= 0
        self.basis = basis        # basic variable per row
        self.cost = cost          # reduced-cost row
        self.cost_rhs = cost_rhs  # minus the objective value

    def pivot(self, r, c):
        pr = self.rows[r]
        pv = pr[c]
        self.rows[r] = pr = [x / pv for x in pr]
        self.rhs[r] /= pv
        for i, row in enumerate(self.rows):
            if i != r and row[c] != 0:
                f = row[c]
                self.rows[i] = [x - f * y for x, y in zip(row, pr)]
                self.rhs[i] -= f * self.rhs[r]
        f = self.cost[c]
        if f != 0:
            self.cost = [x - f * y for x, y in zip(self.cost, pr)]
            self.cost_rhs -= f * self.rhs[r]
        self.basis[r] = c

    def minimize(self):
        """Pivot until no reduced cost is negative; the cost is bounded below by 0."""
        for _ in range(PIVOT_LIMIT):
            enter = next((j for j, x in enumerate(self.cost) if x < 0), None)
            if enter is None:
                return
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = self.rhs[i] / row[enter]
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                raise SimplexInvariantError("phase 1 is bounded below by 0 yet came out unbounded")
            self.pivot(leave, enter)
        raise PivotLimitExceeded("simplex pivot ceiling reached")


def _phase1(constraints, n):
    """Phase 1 of the simplex for <a, x> <= b over free variables x."""
    m = len(constraints)
    # columns: x+ (n), x- (n), slacks (m), one artificial per row with b < 0
    nbase = 2 * n + m
    art_rows = [i for i, (_, b) in enumerate(constraints) if b < 0]
    rows = []
    rhs = []
    basis = []
    for i, (a, b) in enumerate(constraints):
        row = [Fraction(x) for x in a] + [Fraction(-x) for x in a]
        row += [Fraction(int(j == i)) for j in range(m)]
        row += [Fraction(0)] * len(art_rows)
        b = Fraction(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
            basis.append(nbase + art_rows.index(i))
            row[basis[-1]] = Fraction(1)
        else:
            basis.append(2 * n + i)
        rows.append(row)
        rhs.append(b)
    # reduced costs of sum(artificials): price each artificial row out
    cost = [Fraction(0)] * nbase + [Fraction(1)] * len(art_rows)
    cost_rhs = Fraction(0)
    for i in art_rows:
        cost = [x - y for x, y in zip(cost, rows[i])]
        cost_rhs -= rhs[i]
    t = _Tableau(rows, rhs, basis, cost, cost_rhs)
    t.minimize()
    if -t.cost_rhs > 0:
        return LPResult(status="infeasible", farkas=_extract_farkas(t, constraints, n, m))
    xs = [Fraction(0)] * (2 * n)
    for i, bv in enumerate(t.basis):
        if bv < 2 * n:
            xs[bv] = t.rhs[i]
    return LPResult(status="optimal", point=tuple(xs[j] - xs[n + j] for j in range(n)))


def _extract_farkas(t, constraints, n, m):
    """Farkas witness y >= 0 with y.A = 0 and y.b < 0 from phase-1 duals.

    At a positive phase-1 optimum, the reduced cost of the slack column of
    row i is exactly the witness multiplier for original constraint i
    (row-flip signs cancel).  The witness is verified before being returned.
    """
    y = [t.cost[2 * n + i] for i in range(m)]
    comb = [Fraction(0)] * n
    total = Fraction(0)
    ok = all(v >= 0 for v in y)
    for yi, (a, b) in zip(y, constraints):
        for j in range(n):
            comb[j] += yi * a[j]
        total += yi * b
    ok = ok and all(c == 0 for c in comb) and total < 0
    if not ok:
        raise SimplexInvariantError("failed to certify infeasibility")
    return tuple(y)


def feasible_point(inequalities, equalities=()):
    """Any exact point satisfying <a,x> <= b and <c,x> = d systems.

    Returns an LPResult whose point is a feasible point, or an infeasible
    result with a Farkas witness.  Equalities are handled as constraint
    pairs.  An empty system has no dimension and raises ``ValueError``.
    """
    cons = [(tuple(a), b) for a, b in inequalities]
    for a, b in equalities:
        cons.append((tuple(a), b))
        cons.append((tuple(-x for x in a), -b))
    if not cons:
        raise ValueError("an empty system has no dimension")
    return _phase1(cons, len(cons[0][0]))
