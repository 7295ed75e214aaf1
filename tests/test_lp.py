from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricfano import lp
from toricfano.lp import PIVOT_LIMIT, LPResult, PivotLimitExceeded, SimplexInvariantError, feasible_point


def _fraction_dual_simplex(cons, n):
    """Point or Farkas witness for <a, x> <= b over free variables x.

    Oracle: the dual simplex on the ``Fraction`` tableau, each pivot row
    divided by its pivot, against which the integer tableau is checked.
    """
    m = len(cons)
    rows = [[Fraction(x) for x in (*a, *(-x for x in a), *(int(j == i) for j in range(m)), b)]
            for i, (a, b) in enumerate(cons)]
    basis = list(range(2 * n, 2 * n + m))
    for _ in range(PIVOT_LIMIT):
        r = min((i for i, row in enumerate(rows) if row[-1] < 0), key=basis.__getitem__, default=None)
        if r is None:
            xs = [Fraction(0)] * (2 * n)
            for row, bv in zip(rows, basis):
                if bv < 2 * n:
                    xs[bv] = row[-1]
            return LPResult(status="optimal", point=tuple(xs[j] - xs[n + j] for j in range(n)))
        pivot_row = rows[r]
        c = next((j for j, x in enumerate(pivot_row[:-1]) if x < 0), None)
        if c is None:
            return LPResult(status="infeasible", farkas=tuple(pivot_row[2 * n:-1]))
        pv = pivot_row[c]
        rows[r] = pivot_row = [x / pv for x in pivot_row]
        support = [(j, y) for j, y in enumerate(pivot_row) if y]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                for j, y in support:
                    row[j] -= f * y
        basis[r] = c
    raise PivotLimitExceeded("simplex pivot ceiling reached")


def assert_matches_oracle(cons):
    """The integer tableau's whole LPResult, point and witness, is the Fraction tableau's."""
    n = len(cons[0][0])
    assert lp._dual_simplex(cons, n) == _fraction_dual_simplex(cons, n)


def assert_farkas(y, constraints):
    """y >= 0 with y.A = 0 and y.b < 0, checked against the original data."""
    assert y is not None
    assert all(c >= 0 for c in y)
    n = len(constraints[0][0])
    assert all(sum(yi * a[j] for yi, (a, _) in zip(y, constraints)) == 0 for j in range(n))
    assert sum(yi * b for yi, (_, b) in zip(y, constraints)) < 0


def assert_point(x, constraints):
    """Every <a, x> <= b holds exactly at x."""
    assert x is not None
    assert all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in constraints)


class TestSolve:
    def test_infeasible_with_farkas(self):
        # x <= -1 and -x <= 0 cannot both hold
        cons = (((1,), -1), ((-1,), 0))
        r = feasible_point(cons)
        assert r.status == "infeasible"
        assert r.point is None
        assert_farkas(r.farkas, cons)

    def test_free_variables(self):
        # every feasible x is at most -5, so the point must go negative
        r = feasible_point([((1,), -5), ((-1,), 7)])
        assert r.status == "optimal"
        (x,) = r.point
        assert -7 <= x <= -5

    def test_degenerate_vertex_terminates(self):
        # eight constraints meeting at one point; Bland's rule must not cycle
        cons = [((a, b), a + b) for a in (-1, 0, 1) for b in (-1, 0, 1) if (a, b) != (0, 0)]
        r = feasible_point(cons)
        assert r.status == "optimal"
        assert r.point == (1, 1)


class TestFeasiblePoint:
    def test_box(self):
        r = feasible_point([((1, 0), 1), ((0, 1), 1), ((-1, 0), 1), ((0, -1), 1)])
        assert r.status == "optimal"
        x, y = r.point
        assert -1 <= x <= 1 and -1 <= y <= 1

    def test_equalities(self):
        r = feasible_point([((1, 0), 10)], equalities=[((1, 1), 3), ((1, -1), 1)])
        assert r.status == "optimal"
        assert r.point == (2, 1)

    def test_infeasible_equalities(self):
        r = feasible_point([], equalities=[((1,), 0), ((1,), 1)])
        assert r.status == "infeasible"
        assert r.farkas is not None

    @pytest.mark.parametrize(
        "wrong",
        [LPResult(status="optimal", point=(0,)), LPResult(status="infeasible", farkas=(1, 0))],
        ids=["point", "witness"],
    )
    def test_uncertified_verdict_raises(self, monkeypatch, wrong):
        # x <= -1 and x >= -3: 0 is no solution, and (1, 0) sums to x <= -1, not 0 <= -1
        monkeypatch.setattr(lp, "_dual_simplex", lambda cons, n: wrong)
        with pytest.raises(SimplexInvariantError):
            feasible_point([((1,), -1), ((-1,), 3)])

    def test_dim_required_when_empty(self):
        # an empty system carries no dimension, and none can be passed
        with pytest.raises(ValueError):
            feasible_point([])

    @pytest.mark.parametrize("rows", [[((1,), -1), ((1, 0), 1)], [((1, 0), 1), ((1,), -1)]],
                             ids=["short_first", "long_first"])
    def test_ragged_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="one length"):
            feasible_point(rows)


@st.composite
def bounded_lps(draw):
    """A box-bounded system <a, x> <= b plus one drawn equality."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    coeff = st.integers(-4, 4)
    extra = [tuple(draw(st.lists(coeff, min_size=n, max_size=n))) for _ in range(m)]
    rhss = [draw(st.integers(-3, 6)) for _ in range(m)]
    cons = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        cons.append((tuple(e), 5))
        cons.append((tuple(-x for x in e), 5))
    cons.extend(zip(extra, rhss))
    eq = (tuple(draw(st.lists(coeff, min_size=n, max_size=n))), draw(st.integers(-6, 6)))
    return cons, eq


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(bounded_lps())
    def test_certificates_are_exact(self, system):
        cons, (c, d) = system
        r = feasible_point(cons, equalities=[(c, d)])
        assert r.status in ("optimal", "infeasible")
        if r.status == "optimal":
            # the returned point satisfies every constraint exactly
            for a, b in cons:
                assert sum(ai * x for ai, x in zip(a, r.point)) <= b
            assert sum(ci * x for ci, x in zip(c, r.point)) == d
        else:
            # equalities enter the witness as the pair <c,x> <= d, <-c,x> <= -d
            pairs = cons + [(c, d), (tuple(-x for x in c), -d)]
            assert_farkas(r.farkas, pairs)


@st.composite
def degenerate_lps(draw):
    """Up to ten constraints tight at one lattice point, plus up to four extras.

    Many constraints tight at one point make the system degenerate, so
    pivots tie and only the least-index rule keeps them from cycling.
    """
    n = draw(st.integers(1, 4))
    coeff = st.integers(-3, 3)
    row = st.lists(coeff, min_size=n, max_size=n).map(tuple)
    p = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    tight = draw(st.lists(row, min_size=1, max_size=10))
    cons = [(a, sum(ai * pi for ai, pi in zip(a, p))) for a in tight]
    extra = draw(st.lists(st.tuples(row, st.integers(-5, 5)), max_size=4))
    return cons + extra


class TestDegenerate:
    @settings(max_examples=150, deadline=None)
    @given(degenerate_lps())
    def test_terminates_with_a_valid_certificate(self, cons):
        r = feasible_point(cons)
        if r.status == "optimal":
            assert_point(r.point, cons)
        else:
            assert r.status == "infeasible"
            assert_farkas(r.farkas, cons)


@st.composite
def fractional_lps(draw):
    """Up to eight rows whose right-hand sides are halves and thirds."""
    n = draw(st.integers(1, 3))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    rhs = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3]))
    return draw(st.lists(st.tuples(row, rhs), min_size=1, max_size=8))


class TestIntegerTableau:
    """The integer tableau keeps every sign, so Bland's rule makes the Fraction tableau's choices."""

    @settings(max_examples=100, deadline=None)
    @given(bounded_lps())
    def test_bounded(self, system):
        cons, (c, d) = system
        assert_matches_oracle(cons + [(c, d), (tuple(-x for x in c), -d)])

    @settings(max_examples=150, deadline=None)
    @given(degenerate_lps())
    def test_degenerate(self, cons):
        assert_matches_oracle(cons)

    @settings(max_examples=150, deadline=None)
    @given(fractional_lps())
    def test_fractional_rhs(self, cons):
        assert_matches_oracle(cons)

    @pytest.mark.parametrize("name", ["cx5_pair", "q1_pair", "q2_pair"])
    def test_conj11_systems(self, request, name):
        # every facet's system, as ``check_conj11`` and ``feasible_point`` build it
        from test_conjectures import facet_adjacency    # here: test_conjectures imports this module

        p = request.getfixturevalue(name).p
        adjacency = facet_adjacency(p)
        for i, f in enumerate(p.facets):
            cons = [(p.facets[j].normal, Fraction(1, 2)) for j in sorted(adjacency[i])]
            cons += [(f.normal, Fraction(f.rhs)), (tuple(-x for x in f.normal), -Fraction(f.rhs))]
            assert_matches_oracle(cons)
