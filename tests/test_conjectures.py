from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_measures import PRODUCT_PAIRS, SUMMANDS
from toricfano import conjectures, fixtures
from toricfano.conjectures import (
    FacetFeasibility,
    check_bishop,
    check_conj11,
    check_eq1,
    check_ehrhart_bound,
    facet_adjacency,
    run_all,
)
from toricfano.linalg import dot
from toricfano.lp import feasible_point
from toricfano.measures import count_integer_points
from toricfano.polytope import (
    DimensionDeficiencyError,
    DualPair,
    dual,
    faces_codim2,
    free_sum,
    hull,
)

FIXTURE_DUALS = [
    *(lambda n=n: dual(fixtures.simplex_fano(n)) for n in range(1, 5)),
    *(lambda n=n: dual(fixtures.cross_polytope(n)) for n in range(2, 5)),
    lambda: dual(fixtures.hexagon()),
    lambda: dual(fixtures.cx5()),
]
FIXTURE_DUAL_IDS = [*(f"p{n}" for n in range(1, 5)), *(f"cross{n}" for n in range(2, 5)),
                    "hexagon", "cx5"]


def _conj11_per_facet(dp):
    """Oracle: conj11 with one LP for every facet, no orbits."""
    p = dp.p
    adjacency = facet_adjacency(p)
    out = []
    for i, f in enumerate(p.facets):
        ineqs = [(p.facets[j].normal, Fraction(1, 2)) for j in sorted(adjacency[i])]
        res = feasible_point(ineqs, [(f.normal, Fraction(f.rhs))])
        out.append(FacetFeasibility(i, f.normal, res.status == "optimal"))
    return out


def _interior_lattice_points(p):
    """Oracle: the strictly interior lattice points, by a bounding-box scan."""
    n = p.dim
    los = [min(v[j] for v in p.vertices) for j in range(n)]
    his = [max(v[j] for v in p.vertices) for j in range(n)]
    box = product(*(range(lo, hi + 1) for lo, hi in zip(los, his)))
    return [x for x in box if all(dot(f.normal, x) > f.rhs for f in p.facets)]


def _interior_count(p):
    return count_integer_points([(f.normal, f.rhs + 1) for f in p.facets])


class TestEq1:
    def test_plane(self, p2_pair):
        r = check_eq1(p2_pair)
        # a_0 = 1 vs (1/3) * 3 = 1: the inequality is sharp here
        assert r.a_n_minus_2 == 1
        assert r.third_of_codim2_vol == 1
        assert r.holds and r.equality

    def test_square_strict(self):
        r = check_eq1(dual(fixtures.cross_polytope(2)))
        assert r.a_n_minus_2 == 1
        assert r.third_of_codim2_vol == Fraction(4, 3)
        assert r.holds and not r.equality

    def test_counterexample_fixture(self, cx5_pair):
        r = check_eq1(cx5_pair)
        assert r.a_n_minus_2 == Fraction(223, 3)
        assert r.third_of_codim2_vol == Fraction(290, 3)
        assert r.holds and not r.equality

    @pytest.mark.slow
    def test_paper_example_q1(self, q1_pair):
        r = check_eq1(q1_pair)
        assert r.a_n_minus_2 == Fraction(10486, 15)
        assert r.third_of_codim2_vol == 920
        assert r.holds and not r.equality

    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            check_eq1(dual(fixtures.segment()))


class TestConj11:
    def test_symmetric_examples_all_feasible(self, p2_pair, cross3_pair, hexagon_pair):
        for dp in [p2_pair, cross3_pair, hexagon_pair]:
            assert all(f.feasible for f in check_conj11(dp))

    def test_counterexample_facets(self, cx5_pair):
        records = check_conj11(cx5_pair)
        bad = {r.facet_normal for r in records if not r.feasible}
        assert bad == set(fixtures.CX5_BAD_DUAL_VERTICES)

    @pytest.mark.parametrize(
        "make",
        [*(lambda n=n: fixtures.simplex_fano(n) for n in range(1, 5)),
         *(lambda n=n: fixtures.cross_polytope(n) for n in range(2, 5)),
         fixtures.hexagon, fixtures.cx5, fixtures.q1],
        ids=[*(f"p{n}" for n in range(1, 5)), *(f"cross{n}" for n in range(2, 5)),
             "hexagon", "cx5", "q1"],
    )
    def test_adjacency_matches_ridges(self, make):
        p = dual(make()).p
        expected = {i: set() for i in range(len(p.facets))}
        for _, (i, j) in faces_codim2(p):
            expected[i].add(j)
            expected[j].add(i)
        assert facet_adjacency(p) == expected

    def test_warns_when_barycenter_nonzero(self):
        dp = dual(hull([(1, 0), (0, 1), (-1, -1), (1, 1)]))
        with pytest.warns(UserWarning):
            check_conj11(dp)


class TestConj11Orbits:
    """One LP per facet orbit gives the records of one LP per facet."""

    @pytest.mark.parametrize("make", FIXTURE_DUALS, ids=FIXTURE_DUAL_IDS)
    def test_fixture_duals_match_per_facet(self, make):
        dp = make()
        assert check_conj11(dp) == _conj11_per_facet(dp)

    def test_bl1_matches_per_facet(self):
        dp = dual(hull(SUMMANDS["bl1"]))
        with pytest.warns(UserWarning):
            records = check_conj11(dp)
        assert records == _conj11_per_facet(dp)

    @pytest.mark.parametrize("name", ["q1", "q2"])
    def test_q_matches_per_facet(self, request, name):
        dp, (_, gp) = (request.getfixturevalue(f"{name}_{x}") for x in ("pair", "groups"))
        assert check_conj11(dp, gp) == _conj11_per_facet(dp)

    @pytest.mark.filterwarnings("ignore:criterion hypothesis")
    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["+".join(p) for p in PRODUCT_PAIRS])
    def test_free_sums_match_per_facet(self, pair):
        dp = dual(free_sum(*(hull(SUMMANDS[s]) for s in pair)))
        assert check_conj11(dp) == _conj11_per_facet(dp)

    @pytest.mark.parametrize(
        "name, lps",
        [("p2_pair", 1), ("cross3_pair", 1), ("hexagon_pair", 1), ("cx5_pair", 2),
         ("q1_pair", 4), ("q2_pair", 5)],
    )
    def test_one_lp_per_facet_orbit(self, request, monkeypatch, name, lps):
        dp = request.getfixturevalue(name)
        calls = []
        solve = conjectures.feasible_point

        def counted(ineqs, eqs):
            calls.append(eqs)
            return solve(ineqs, eqs)

        monkeypatch.setattr(conjectures, "feasible_point", counted)
        check_conj11(dp)
        assert len(calls) == lps


@pytest.fixture
def interior_counts(monkeypatch):
    """Calls the Ehrhart-bound check makes to count the strict interior."""
    calls = []
    count = conjectures.count_integer_points

    def counted(cons):
        calls.append(cons)
        return count(cons)

    monkeypatch.setattr(conjectures, "count_integer_points", counted)
    return calls


class TestEhrhartBound:
    def test_plane_is_sharp(self, p2_pair, interior_counts):
        r = check_ehrhart_bound(p2_pair)
        assert r.vol == r.bound == Fraction(9, 2)
        assert r.holds and r.equality
        assert r.simplex_shape is True
        assert len(interior_counts) == 1

    def test_square_strict(self):
        r = check_ehrhart_bound(dual(fixtures.cross_polytope(2)))
        assert r.vol == 4
        assert r.bound == Fraction(9, 2)
        assert r.holds and not r.equality
        assert r.simplex_shape is None

    def test_counterexample_fixture(self, cx5_pair, interior_counts):
        r = check_ehrhart_bound(cx5_pair)
        assert r.vol == Fraction(301, 10)
        assert r.bound == Fraction(324, 5)
        assert r.holds
        assert r.known_bound_holds
        assert len(interior_counts) == 1

    def test_rejects_extra_interior_points(self):
        # 2P for P the square: nine interior lattice points
        dp = DualPair(q=None, p=hull([(-2, -2), (2, -2), (-2, 2), (2, 2)]))
        with pytest.raises(ValueError):
            check_ehrhart_bound(dp)

    def test_rejects_origin_on_boundary(self):
        # (1, 1) is the one interior lattice point; the origin is a vertex
        dp = DualPair(q=None, p=hull([(0, 0), (3, 0), (0, 3)]))
        with pytest.raises(ValueError):
            check_ehrhart_bound(dp)

    def test_structural_fallback_in_high_dimension(self, q1_pair, interior_counts):
        r = check_ehrhart_bound(q1_pair)
        assert r.holds
        assert interior_counts == []


class TestBishop:
    def test_plane_is_sharp(self, p2_pair):
        r = check_bishop(p2_pair)
        assert r.index == 3
        assert r.degree == 9
        assert r.lhs == r.bound == 27
        assert r.holds and r.sharp

    def test_counterexample_fixture(self, cx5_pair):
        r = check_bishop(cx5_pair)
        assert r.lhs == 3612
        assert r.bound == 46656
        assert r.holds and not r.sharp


class TestRunAll:
    def test_dimension_one_skips_eq1(self):
        report = run_all(dual(fixtures.segment()))
        assert report.eq1 is None
        assert report.ehrhart_bound.holds
        assert report.bishop.holds

    def test_counterexample_report(self, cx5_pair):
        report = run_all(cx5_pair)
        assert report.eq1 is not None and report.eq1.holds
        assert sum(1 for f in report.conj11 if not f.feasible) == 2
        assert report.ehrhart_bound.holds
        assert report.bishop.holds

    def test_eq1_skipped_above_the_cap(self, cx5_pair):
        assert run_all(cx5_pair, ehrhart_max_dim=4).eq1 is None


class TestInteriorCount:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: dual(fixtures.simplex_fano(2)).p,
            lambda: dual(fixtures.cross_polytope(3)).p,
            lambda: dual(fixtures.hexagon()).p,
            lambda: dual(fixtures.cx5()).p,
            lambda: fixtures.cube(3),
        ],
        ids=["p2", "cross3", "hexagon", "cx5", "cube3"],
    )
    def test_reflexive_fixtures_have_only_the_origin(self, make):
        p = make()
        assert _interior_lattice_points(p) == [(0,) * p.dim]
        assert _interior_count(p) == 1

    @given(
        st.integers(1, 3).flatmap(
            lambda n: st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=n + 1, max_size=n + 4)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_box_scan(self, pts):
        try:
            p = hull(pts)
        except DimensionDeficiencyError:
            return
        assert _interior_count(p) == len(_interior_lattice_points(p))
