from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.linalg import (
    DimensionError,
    SingularMatrixError,
    _eliminate,
    adjugate,
    det,
    dot,
    integer_rows,
    inverse_columns,
    kernel_basis,
    mat_mul,
    matrix_inverse_unimodular,
    primitive,
    rank,
    rref,
    saturated_kernel,
    solve_exact,
)


def det_cofactor(m):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


def rref_fraction(rows):
    """Oracle: Gauss-Jordan over Fraction, each pivot row divided by its pivot."""
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


def det_bareiss(a):
    """Oracle: forward fraction-free Bareiss elimination of a square int matrix."""
    a = [list(row) for row in a]
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
    return sign * a[n - 1][n - 1] if n else 1


def kernel_basis_fraction(m):
    """Oracle: one kernel vector per free column of ``rref_fraction``, made primitive."""
    ncols = len(m[0])
    ech, pivots = rref_fraction(m)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -ech[i][f]
            basis.append(primitive(v))
    return basis


def solve_fraction(a, b):
    """Oracle: the last column of ``rref_fraction([a | b])``, or None if a is singular."""
    n = len(a)
    ech, pivots = rref_fraction([[*row, bi] for row, bi in zip(a, b)])
    return tuple(row[n] for row in ech) if pivots == list(range(n)) else None


@st.composite
def matrices(draw, rows=st.integers(1, 5), cols=st.integers(1, 6), fractions=False):
    """Integer or rational matrices; about half are products through a smaller
    inner dimension, so rank-deficient (a zero matrix for inner dimension 0)."""
    r, c = draw(rows), draw(cols)
    entry = st.integers(-6, 6)
    if fractions:
        entry = st.one_of(entry, st.fractions(-6, 6, max_denominator=7))

    def block(nr, nc):
        return draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))

    if draw(st.booleans()):
        k = draw(st.integers(0, min(r, c) - 1))
        left, right = block(r, k), block(k, c)
        return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)] for i in range(r)]
    return block(r, c)


ANY_MATRIX = st.one_of(matrices(), matrices(fractions=True))
SQUARE_SIZE = st.shared(st.integers(1, 5), key="square")


@st.composite
def unit_pivot_matrices(draw):
    """[L U | C] with L and U unit triangular: every leading principal minor of L U is 1.

    So each of the first n Bareiss pivots is 1 over a previous pivot of 1,
    the d = 1 path of ``bareiss_pivot``; the extra columns C give a kernel.
    """
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[1 if i == j else draw(entry) if j > i else 0 for j in range(n)] for i in range(n)]
    extra = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=2))
    return [list(row) + [col[i] for col in extra] for i, row in enumerate(mat_mul(low, up))]


class TestAgainstFractionOracles:
    @given(ANY_MATRIX)
    @settings(max_examples=150, deadline=None)
    def test_rref(self, m):
        ech, pivots = rref(m)
        assert (ech, pivots) == rref_fraction(m)
        assert all(type(x) is Fraction for row in ech for x in row)

    @given(ANY_MATRIX)
    @settings(max_examples=100, deadline=None)
    def test_rank(self, m):
        assert rank(m) == len(rref_fraction(m)[1])

    @given(ANY_MATRIX)
    @settings(max_examples=150, deadline=None)
    def test_kernel_basis(self, m):
        assert kernel_basis(m) == kernel_basis_fraction(m)

    @given(
        st.one_of(matrices(SQUARE_SIZE, SQUARE_SIZE), matrices(SQUARE_SIZE, SQUARE_SIZE, fractions=True)),
        SQUARE_SIZE.flatmap(lambda n: st.lists(st.integers(-6, 6), min_size=n, max_size=n)),
    )
    @settings(max_examples=150, deadline=None)
    def test_solve_exact(self, a, b):
        expected = solve_fraction(a, b)
        if expected is None:
            with pytest.raises(SingularMatrixError):
                solve_exact(a, b)
        else:
            assert solve_exact(a, b) == expected

    @given(matrices(SQUARE_SIZE, SQUARE_SIZE))
    @settings(max_examples=100, deadline=None)
    def test_det(self, m):
        assert det(m) == det_bareiss(m)

    @given(unit_pivot_matrices())
    @settings(max_examples=100, deadline=None)
    def test_unit_pivots(self, m):
        n = len(m)
        pivots, d = _eliminate([list(row) for row in m])
        assert (pivots, d) == (list(range(n)), 1)
        assert rref(m) == rref_fraction(m)
        assert kernel_basis(m) == kernel_basis_fraction(m)
        square = [row[:n] for row in m]
        assert det(square) == det_bareiss(square) == 1
        assert adjugate(square)[1] == matrix_inverse_unimodular(square)


class TestIntegerRows:
    """An ``int`` row passes through as it is, to the same results as the same row of ``Fraction``s."""

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_primitive_agrees_with_fractions(self, v):
        got = primitive(v)
        assert got == primitive([Fraction(x) for x in v])
        assert all(type(x) is int for x in got)
        g = gcd(*v) or 1
        lead = next((x for x in v if x), 0)
        assert got == tuple(x // g * (-1 if lead < 0 else 1) for x in v)

    def test_primitive_negative_leading_entry(self):
        assert primitive([0, -4, 6, -2]) == (0, 2, -3, 1)
        assert primitive([Fraction(0), Fraction(-4), Fraction(6), Fraction(-2)]) == (0, 2, -3, 1)
        assert primitive((-6, 0, 9)) == (2, 0, -3)

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_basis_agrees_with_fractions(self, m):
        rows = [tuple(row) for row in m]
        assert kernel_basis(rows) == kernel_basis([[Fraction(x) for x in row] for row in m])
        assert rows == [tuple(row) for row in m]    # the elimination works on copies

    def test_int_rows_are_copied(self):
        rows = [[1, 2], (3, 4)]
        out = integer_rows(rows)
        assert out == [[1, 2], [3, 4]]
        assert all(type(row) is list and row is not src for row, src in zip(out, rows))
        assert integer_rows([[Fraction(1, 2), 1], [1, Fraction(2, 3)]]) == [[1, 2], [3, 2]]


class TestRref:
    def test_empty(self):
        assert rref([]) == ([], [])

    def test_two_rows(self):
        assert rref([[0, 2, 4], [1, 1, 1]]) == ([[1, 0, -1], [0, 1, 2]], [0, 1])

    def test_zero_rows_dropped(self):
        assert rref([[0, 0], [0, 0]]) == ([], [])

    def test_skipped_column(self):
        # column 1 is twice column 0 in every row, so it gets no pivot
        assert rref([[1, 2, 3], [2, 4, 7], [3, 6, 10]]) == ([[1, 2, 0], [0, 0, 1]], [0, 2])

    def test_fraction_entries(self):
        ech, pivots = rref([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]])
        assert (ech, pivots) == ([[1, Fraction(2, 3)]], [0])
        assert all(type(x) is Fraction for x in ech[0])

    def test_negative_pivot_determinant(self):
        # a row swap and a negative pivot leave the RREF unchanged
        assert rref([[0, -3], [-2, 4]]) == ([[1, 0], [0, 1]], [0, 1])


class TestDet:
    def test_empty(self):
        assert det([]) == 1

    def test_identity_7(self):
        m = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
        assert det(m) == 1

    def test_2x2(self):
        assert det([[2, 1], [1, 1]]) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det([[1, 2, 3], [4, 5, 6]])

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_rational_entries(self):
        # Bareiss floor division would turn this into a wrong value; refuse it
        m = [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]]
        with pytest.raises(TypeError):
            det(m)

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_bareiss_matches_cofactor(self, m):
        assert det(m) == det_cofactor(m)


class TestAdjugate:
    def test_empty(self):
        assert adjugate([]) == (1, ())

    def test_2x2(self):
        assert adjugate([[2, 1], [5, 3]]) == (1, ((3, -1), (-5, 2)))

    def test_needs_row_swap(self):
        assert adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            adjugate([[1, 2], [2, 4]])

    def test_rational_entries_rejected(self):
        # floor division would report det 1/2 as singular; refuse the input
        with pytest.raises(TypeError):
            adjugate([[Fraction(1, 2), 1], [1, 3]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            adjugate([[1, 2, 3], [4, 5, 6]])

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_adjugate_identity(self, m):
        d = det(m)
        if d == 0:
            return
        got_det, adj = adjugate(m)
        assert got_det == d
        scaled = tuple(tuple(d if i == j else 0 for j in range(4)) for i in range(4))
        assert mat_mul(adj, m) == scaled
        assert mat_mul(m, adj) == scaled


class TestSolve:
    def test_identity(self):
        assert solve_exact([[1, 0], [0, 1]], [-1, -1]) == (-1, -1)

    def test_dual_vertex_of_projective_plane(self):
        # facet equalities <y, (1,0)> = -1, <y, (0,1)> = -1
        assert solve_exact([[1, 0], [0, 1]], [-1, -1]) == (-1, -1)

    def test_rational_solution(self):
        x = solve_exact([[2, 1], [1, 3]], [1, 0])
        assert x == (Fraction(3, 5), Fraction(-1, 5))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            solve_exact([[1, 1], [2, 2]], [1, 2])

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        ),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_substitution(self, a, b):
        if det(a) == 0:
            return
        x = solve_exact(a, b)
        assert all(dot(row, x) == bi for row, bi in zip(a, b))


class TestKernel:
    def test_zero_matrix(self):
        assert len(kernel_basis([[0, 0, 0]] * 3)) == 3

    def test_identity(self):
        assert kernel_basis([[1, 0], [0, 1]]) == []

    def test_annihilation_and_count(self):
        m = [[1, 2, 3], [2, 4, 6]]
        basis = kernel_basis(m)
        assert len(basis) == 3 - rank(m)
        for v in basis:
            assert all(dot(row, v) == 0 for row in m)

    def test_primitive_output(self):
        basis = kernel_basis([[2, 4]])
        assert basis == [(-2, 1)] or basis == [(2, -1)]
        assert primitive(basis[0]) == basis[0]


class TestSaturatedKernel:
    def test_full_induced_lattice(self):
        # kernel of (1, 1, -2) contains (1, 1, 1) even though coarse
        # generators like (2, 0, 1), (0, 2, 1) miss it
        basis = saturated_kernel([[1, 1, -2]])
        assert len(basis) == 2
        from toricfano.linalg import solve_exact as solve

        # (1,1,1) must be an integer combination of the basis
        cols = list(zip(*basis))
        sub = [cols[0], cols[1]]
        if rank(sub) < 2:
            sub = [cols[0], cols[2]]
        coeffs = solve(sub, [1, 1])
        assert all(c.denominator == 1 for c in coeffs)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_basis_is_saturated(self, m):
        n = len(m[0])
        basis = saturated_kernel(m)
        assert len(basis) == n - rank(m)
        for b in basis:
            assert all(dot(row, b) == 0 for row in m)
        # the lattice is saturated iff the gcd of its maximal minors is 1
        k = len(basis)
        if k:
            g = 0
            for rows in combinations(range(n), k):
                g = gcd(g, det([[b[i] for b in basis] for i in rows]))
            assert g == 1


class TestInverseColumns:
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_columns_of_the_scaled_inverse(self, m):
        d = det(m)
        if d == 0:
            with pytest.raises(SingularMatrixError):
                inverse_columns(m)
            return
        got_det, cols = inverse_columns(m)
        assert got_det == d
        assert mat_mul(m, tuple(zip(*cols))) == tuple(tuple(abs(d) * (i == j) for j in range(3)) for i in range(3))

    def test_unimodular_is_the_inverse(self):
        m = ((0, 1), (1, 0))
        assert inverse_columns(m) == (-1, ((0, 1), (1, 0)))
        assert inverse_columns(((2, 1), (5, 3))) == (1, ((3, -5), (-1, 2)))


class TestUnimodularInverse:
    def test_round_trip(self):
        m = ((1, 2), (0, 1))
        inv = matrix_inverse_unimodular(m)
        assert mat_mul(m, inv) == ((1, 0), (0, 1))

    def test_rejects_non_unimodular(self):
        with pytest.raises(SingularMatrixError):
            matrix_inverse_unimodular(((2, 0), (0, 1)))

    def test_rejects_rational_entries(self):
        # the true inverse ((1, -1/2), (0, 1)) is not integral
        with pytest.raises(TypeError):
            matrix_inverse_unimodular([[1, Fraction(1, 2)], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            matrix_inverse_unimodular([[1, 0, 0], [0, 1, 0]])


def test_permutation_matrices_det():
    for perm in permutations(range(3)):
        m = [[1 if j == perm[i] else 0 for j in range(3)] for i in range(3)]
        assert det(m) in (1, -1)
