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
    """Exact determinant.

    Integer matrices go through fraction-free Bareiss elimination; anything
    with rational entries falls back to ordinary rational elimination.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("determinant requires a square matrix")
    if n == 0:
        return 1
    if all(isinstance(x, int) for row in m for x in row):
        return _det_bareiss([list(row) for row in m])
    return _det_rational([[Fraction(x) for x in row] for row in m])


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
    same multiple of m^-1.
    """
    n = len(m)
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


def _det_rational(a):
    n = len(a)
    sign = 1
    result = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        pivot = a[k][k]
        result *= pivot
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / pivot
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return sign * result


def solve_exact(a, b):
    """Solve a square system a.x = b exactly over the rationals."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionError("solve_exact requires a square system")
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        aug[k] = [x / pivot for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return tuple(row[n] for row in aug)


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


def smith_normal_form(m):
    """Smith normal form S = U.m.V with U, V unimodular.

    Diagonal entries are nonnegative and each divides the next.
    Returns (S, U, V).
    """
    a = [list(r) for r in m]
    nr = len(a)
    nc = len(a[0]) if a else 0
    u = [list(r) for r in identity(nr)]
    v = [list(r) for r in identity(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col i -= q * col j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # find smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if a[t][t] < 0:
            negate_row(t)
        # clear row and column t
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        if a[t][t] < 0:
                            negate_row(t)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the trailing block by a[t][t]
        offender = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, -1)
            continue
        t += 1
    s = tuple(tuple(row) for row in a)
    return s, tuple(tuple(row) for row in u), tuple(tuple(row) for row in v)


def saturated_kernel(m):
    """Basis of the full integer kernel lattice Z^n ∩ ker(m).

    The basis spans all integer solutions of m.x = 0 (a saturated sublattice),
    not just the span of some rational kernel basis.  Returns a list of
    integer vectors (columns of the Smith transform V at zero elementaries).
    """
    nc = len(m[0]) if m else 0
    if not m:
        raise DimensionError("saturated_kernel of empty matrix")
    s, _, v = smith_normal_form(m)
    nr = len(m)
    cols = []
    for j in range(nc):
        diag = s[j][j] if j < nr else 0
        if diag == 0:
            cols.append(tuple(v[i][j] for i in range(nc)))
    return cols


def matrix_inverse_unimodular(a):
    """Inverse of an integer matrix with determinant ±1 (stays integral)."""
    n = len(a)
    d = det(a)
    if d not in (1, -1):
        raise SingularMatrixError("matrix is not unimodular")
    inv = []
    for j in range(n):
        e = tuple(1 if i == j else 0 for i in range(n))
        col = solve_exact(a, e)
        inv.append(tuple(int(x) for x in col))
    return tuple(zip(*[list(c) for c in inv]))
