"""Exact integer and rational linear algebra.

All scalars are Python ``int`` or ``fractions.Fraction``; nothing in this
module (or the rest of the package) ever touches floating point.  Matrices
are sequences of row sequences; public results come back as tuples.
"""

from fractions import Fraction
from math import gcd


class LinalgError(Exception):
    pass


class DimensionError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def primitive(v):
    """Scale a rational vector to a primitive integer vector.

    The leading nonzero entry is made positive; the zero vector is returned
    unchanged.
    """
    fracs = [Fraction(x) for x in v]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in v)
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(f * den) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def mat_mul(a, b):
    bT = list(zip(*b))
    return tuple(tuple(dot(row, col) for col in bT) for row in a)


def mat_vec(a, v):
    return tuple(dot(row, v) for row in a)


def transpose(a):
    return tuple(zip(*a))


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(m):
    """Exact determinant of a square ``int`` matrix by fraction-free Bareiss elimination.

    Bareiss divides exactly only over the integers, so any other entry type
    is refused rather than floor-divided into a wrong value.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("determinant requires a square matrix")
    if not all(isinstance(x, int) for row in m for x in row):
        raise TypeError("det requires int entries")
    if n == 0:
        return 1
    return _det_bareiss([list(row) for row in m])


def _det_bareiss(a):
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def adjugate(m):
    """(det(m), adj(m)) of a square integer matrix, with adj(m).m = det(m).I.

    Fraction-free Gauss-Jordan (Bareiss-Montante) on [m | I]: every division
    is exact, the left block ends as +-det(m).I and the right block as the
    same multiple of m^-1.  As in ``det``, entries other than ``int`` are
    refused rather than floor-divided into a wrong value.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("adjugate requires a square matrix")
    if not all(isinstance(x, int) for row in m for x in row):
        raise TypeError("adjugate requires int entries")
    a = [list(row) + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(m)]
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if i is None:
                raise SingularMatrixError("matrix is singular")
            a[k], a[i] = a[i], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(n):
            if i != k:
                aik = a[i][k]
                a[i] = [(pivot * x - aik * y) // prev for x, y in zip(a[i], row_k)]
        prev = pivot
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


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
    """Reduced row echelon form over Fraction.

    Returns (echelon rows as lists, pivot column list).
    """
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    if not rows:
        return 0
    _, pivots = rref(rows)
    return len(pivots)


def kernel_basis(m, ncols=None):
    """Basis of the rational right kernel, as primitive integer vectors.

    Empty list iff the matrix has full column rank.  ``ncols`` must be given
    for an empty row list.
    """
    if not m:
        if ncols is None:
            raise DimensionError("kernel_basis of empty matrix needs ncols")
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    ncols = len(m[0])
    ech, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -ech[i][f]
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
