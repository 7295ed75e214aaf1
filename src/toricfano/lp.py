"""Exact rational linear programming.

Dense two-phase tableau simplex over ``Fraction`` with Bland's anticycling
rule.  Small and predictable; every returned point and value is exact.
"""

from dataclasses import dataclass
from fractions import Fraction

from .linalg import dot

#: hard pivot ceiling; Bland's rule terminates long before this on sane input
PIVOT_LIMIT = 200_000


class PivotLimitExceeded(Exception):
    pass


class SimplexInvariantError(Exception):
    """The solver broke one of its own invariants; a bug, not bad input."""


@dataclass(frozen=True)
class LinearProgram:
    """max/min of objective.x subject to <a, x> <= b per constraint."""

    constraints: tuple  # of (coeffs tuple, rhs)
    objective: tuple
    sense: str = "max"  # "max" | "min"


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple | None = None
    farkas: tuple | None = None


class _Tableau:
    """min c.y  s.t.  T y = rhs, y >= 0, with Bland's rule."""

    def __init__(self, rows, rhs, basis, ncols):
        self.rows = rows          # list of lists of Fraction
        self.rhs = rhs            # list of Fraction, all >= 0
        self.basis = basis        # basic variable per row
        self.ncols = ncols
        self.cost = None          # reduced-cost row
        self.cost_rhs = None

    def set_objective(self, c):
        cost = [Fraction(x) for x in c]
        cost_rhs = Fraction(0)
        for i, bv in enumerate(self.basis):
            if cost[bv] != 0:
                f = cost[bv]
                row = self.rows[i]
                for j in range(self.ncols):
                    cost[j] -= f * row[j]
                cost_rhs -= f * self.rhs[i]
        self.cost = cost
        self.cost_rhs = cost_rhs

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

    def optimize(self, allowed):
        """Run simplex; returns 'optimal' or 'unbounded'."""
        for _ in range(PIVOT_LIMIT):
            enter = next(
                (j for j in range(self.ncols) if allowed[j] and self.cost[j] < 0),
                None,
            )
            if enter is None:
                return "optimal"
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
                return "unbounded"
            self.pivot(leave, enter)
        raise PivotLimitExceeded("simplex pivot ceiling reached")


def _solve_standard(constraints, objective, sense):
    """Core solver for <a, x> <= b over free variables x."""
    m = len(constraints)
    n = len(objective)
    # columns: x+ (n), x- (n), slacks (m), artificials (appended as needed)
    nbase = 2 * n + m
    rows = []
    rhs = []
    basis = []
    art_cols = []
    art_row = []
    for i, (a, b) in enumerate(constraints):
        row = [Fraction(x) for x in a] + [Fraction(-x) for x in a]
        row += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        b = Fraction(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
        if row[2 * n + i] == 1:
            basis.append(2 * n + i)
        else:
            art_cols.append(nbase + len(art_cols))
            art_row.append(i)
            basis.append(art_cols[-1])
    ncols = nbase + len(art_cols)
    for i, row in enumerate(rows):
        ext = [Fraction(0)] * len(art_cols)
        rows[i] = row + ext
    for k, i in enumerate(art_row):
        rows[i][nbase + k] = Fraction(1)

    t = _Tableau(rows, rhs, basis, ncols)
    allowed = [True] * ncols

    if art_cols:
        phase1 = [Fraction(0)] * ncols
        for c in art_cols:
            phase1[c] = Fraction(1)
        t.set_objective(phase1)
        if t.optimize(allowed) != "optimal":
            raise SimplexInvariantError("phase 1 is bounded below by 0 yet came out unbounded")
        if -t.cost_rhs > 0:
            return LPResult(status="infeasible", farkas=_extract_farkas(t, constraints, n, m))
        # drive any artificial out of the basis, then freeze those columns
        for i, bv in enumerate(t.basis):
            if bv >= nbase:
                c = next(
                    (j for j in range(nbase) if t.rows[i][j] != 0),
                    None,
                )
                if c is not None:
                    t.pivot(i, c)
        for c in art_cols:
            allowed[c] = False

    obj = [Fraction(x) for x in objective] + [Fraction(-x) for x in objective]
    obj += [Fraction(0)] * (m + len(art_cols))
    if sense == "max":
        obj = [-x for x in obj]
    t.set_objective(obj)
    status = t.optimize(allowed)
    if status == "unbounded":
        return LPResult(status="unbounded")
    xs = [Fraction(0)] * (2 * n)
    for i, bv in enumerate(t.basis):
        if bv < 2 * n:
            xs[bv] = t.rhs[i]
    point = tuple(xs[j] - xs[n + j] for j in range(n))
    value = dot(objective, point)
    return LPResult(status="optimal", value=value, point=point)


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


def solve(lp: LinearProgram) -> LPResult:
    """Exact optimum of a linear program over free variables."""
    return _solve_standard(tuple(lp.constraints), tuple(lp.objective), lp.sense)


def feasible_point(inequalities, equalities=(), dim=None):
    """Any exact point satisfying <a,x> <= b and <c,x> = d systems.

    Returns an LPResult whose point is a feasible point, or an infeasible
    result with a Farkas witness.  Equalities are handled as constraint
    pairs.  ``dim`` is required when both systems are empty.
    """
    cons = [tuple(c) for c in inequalities]
    for a, b in equalities:
        cons.append((tuple(a), b))
        cons.append((tuple(-x for x in a), -b))
    if not cons:
        if dim is None:
            raise ValueError("dimension required for an empty system")
        return LPResult(status="optimal", value=Fraction(0), point=tuple(Fraction(0) for _ in range(dim)))
    n = len(cons[0][0])
    zero = tuple(Fraction(0) for _ in range(n))
    return _solve_standard(tuple((tuple(a), b) for a, b in cons), zero, "min")
