"""Exact integer and rational linear algebra.

All scalars are Python ``int`` or ``fractions.Fraction``; nothing in this
module (or the rest of the package) ever touches floating point.  Matrices
are sequences of row sequences; public results come back as tuples.
``det``, ``adjugate``, ``rref`` and ``kernel_basis`` (so ``rank`` and ``solve_exact``)
all read ``_eliminate``, a Gauss-Jordan by ``bareiss_pivot``, the LP's pivot too.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class LinalgError(Exception):
    pass


class DimensionError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


def dot(a, b):
    return sum(map(mul, a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def primitive(v):
    """Scale a rational vector to a primitive integer vector.

    The leading nonzero entry is made positive; the zero vector is returned
    unchanged.
    """
    ints = integer_rows([v])[0]
    g = gcd(*ints) or 1
    if next((x for x in ints if x), 0) < 0:
        g = -g
    return tuple(x // g for x in ints)


def mat_mul(a, b):
    bT = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bT) for row in a)


def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _eliminate(a):
    """Fraction-free Gauss-Jordan (Bareiss-Montante) of an integer matrix, in place.

    Columns are taken left to right, and one with no nonzero entry left below
    the pivot rows is skipped, so any shape and rank will do.  Each step
    divides exactly by the previous pivot, so every entry stays a minor of
    the input (Bareiss 1968; Nakos-Turner-Williams 1997).  A row swap negates
    the row moved down, which keeps the determinant.  Returns (pivot columns,
    d): the first len(pivots) rows are d times the rows of the RREF and the
    rest are zero; d is the signed minor on the pivot rows and columns, so
    det(a) for a square nonsingular a.
    """
    pivots = []
    d = 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        if r == len(a):
            break
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        if i != r:
            a[r], a[i] = a[i], [-x for x in a[r]]
        d = bareiss_pivot(a, r, c, d)
        pivots.append(c)
    return pivots, d


def bareiss_pivot(a, r, c, d):
    """Fraction-free pivot on a[r][c] of an integer matrix, in place; returns a[r][c].

    Each other row i becomes (a[r][c] a[i] - a[i][c] a[r]) / d, d the previous
    pivot (1 at first): exact, as every entry is a minor (Bareiss 1968), also
    when row r held an earlier pivot, which exchanges a basis column (``lrs``).
    """
    pivot, row_r = a[r][c], a[r]
    for i, row in enumerate(a):
        aic = row[c]
        if i != r and (aic or pivot != d):
            a[i] = ([x - aic * y for x, y in zip(row, row_r)] if pivot == d == 1    # between unimodular bases
                    else [(pivot * x - aic * y) // d for x, y in zip(row, row_r)])
    return pivot


def integer_rows(rows):
    """Each row scaled by the lcm of its denominators: the same row space over Z (an ``int`` row as it is)."""
    out = []
    for row in rows:
        if not all(type(x) is int for x in row):
            row = [x if isinstance(x, int) else Fraction(x) for x in row]
            den = lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
        out.append(list(row))
    return out


def det(m):
    """Exact determinant of a square ``int`` matrix: the pivot determinant of ``_eliminate``.

    The elimination divides exactly only over the integers, so any other
    entry type is refused rather than floor-divided into a wrong value.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("determinant requires a square matrix")
    if not all(isinstance(x, int) for row in m for x in row):
        raise TypeError("det requires int entries")
    pivots, d = _eliminate([list(row) for row in m])
    return d if len(pivots) == n else 0


def adjugate(m):
    """(det(m), adj(m)) of a square integer matrix, with adj(m).m = det(m).I.

    ``_eliminate`` on [m | I] leaves the left block as det(m).I and the right
    block as the same multiple of m^-1.  As in ``det``, entries other than
    ``int`` are refused rather than floor-divided into a wrong value.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("adjugate requires a square matrix")
    if not all(isinstance(x, int) for row in m for x in row):
        raise TypeError("adjugate requires int entries")
    a = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(m)]
    pivots, d = _eliminate(a)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return d, tuple(tuple(row[n:]) for row in a)


def inverse_columns(m):
    """(det(m), the columns of |det(m)| m^-1) of a square integer matrix, the form of ``Facet.inverse``."""
    d, adj = adjugate(m)
    return d, tuple(zip(*adj)) if d > 0 else tuple(tuple(-x for x in col) for col in zip(*adj))


def solve_exact(a, b):
    """Solve a square system a.x = b exactly over the rationals, from the RREF of [a | b]."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionError("solve_exact requires a square system")
    ech, pivots = rref([[*row, bi] for row, bi in zip(a, b)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return tuple(row[n] for row in ech)


def rref(rows):
    """Reduced row echelon form over Fraction, by ``_eliminate`` on integer rows.

    The RREF over Q is unique, so each row is first scaled to integers and
    each eliminated row is divided by the pivot determinant.
    Returns (echelon rows as lists, pivot column list).
    """
    a = integer_rows(rows)
    pivots, d = _eliminate(a)
    return [[Fraction(x, d) for x in row] for row in a[:len(pivots)]], pivots


def rank(rows):
    return len(rref(rows)[1])


def kernel_basis(m, ncols=None):
    """Basis of the rational right kernel, as primitive integer vectors.

    One vector per non-pivot column f of ``_eliminate``: d at f and minus
    column f of the eliminated rows at the pivots.  Empty list iff the
    matrix has full column rank.  ``ncols`` must be given for an empty row list.
    """
    if not m:
        if ncols is None:
            raise DimensionError("kernel_basis of empty matrix needs ncols")
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    ncols = len(m[0])
    a = integer_rows(m)
    pivots, d = _eliminate(a)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = d
            for row, p in zip(a, pivots):
                v[p] = -row[f]
            basis.append(primitive(v))
    return basis


def saturated_kernel(m):
    """Basis of the full integer kernel lattice Z^n ∩ ker(m).

    Euclid on pairs of columns, each step applied to the identity V as well,
    reduces m to m.V = [H | 0] with H in column echelon form of full column
    rank.  V is unimodular, so its columns over the zero block span every
    integer solution of m.x = 0 (a saturated sublattice), not just the span
    of some rational kernel basis.
    """
    if not m:
        raise DimensionError("saturated_kernel of empty matrix")
    n = len(m[0])
    cols = [list(c) for c in zip(*m)]
    v = [list(c) for c in identity(n)]
    r = 0  # columns r.. are zero on every row reduced so far
    for i in range(len(m)):
        while r < n:
            live = [j for j in range(r, n) if cols[j][i] != 0]
            if not live:
                break
            p = min(live, key=lambda j: abs(cols[j][i]))
            cols[r], cols[p] = cols[p], cols[r]
            v[r], v[p] = v[p], v[r]
            rest = [j for j in range(r + 1, n) if cols[j][i] != 0]
            if not rest:
                r += 1
                break
            for j in rest:
                q = cols[j][i] // cols[r][i]
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[r])]
                v[j] = [x - q * y for x, y in zip(v[j], v[r])]
    return [tuple(c) for c in v[r:]]


def matrix_inverse_unimodular(a):
    """Inverse of an integer matrix with determinant ±1 (stays integral)."""
    d, adj = adjugate(a)
    if d not in (1, -1):
        raise SingularMatrixError("matrix is not unimodular")
    return adj if d == 1 else tuple(tuple(-x for x in row) for row in adj)
