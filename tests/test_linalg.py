from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano.linalg import (
    DimensionError,
    SingularMatrixError,
    adjugate,
    det,
    dot,
    kernel_basis,
    mat_mul,
    matrix_inverse_unimodular,
    primitive,
    rank,
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


class TestDet:
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
