import warnings
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_lp import assert_farkas, assert_point
from test_measures import PRODUCT_PAIRS, SUMMANDS
from test_symmetry import _elementary_unimodular
from toricfano import conjectures, fixtures, symmetry
from toricfano.conjectures import (
    FacetFeasibility,
    check_bishop,
    check_conj11,
    check_eq1,
    check_ehrhart_bound,
)
from toricfano.io import ScanOptions, analyze_entry
from toricfano.linalg import dot, mat_vec
from toricfano.lp import feasible_point
from toricfano.measures import MeasureError, cone_measures, count_lattice_points, fano_index, vertex_facets
from toricfano.polytope import (
    DimensionDeficiencyError,
    DualPair,
    dual,
    faces_codim2,
    free_sum,
    hull,
)
from toricfano.symmetry import polytope_automorphisms

FIXTURE_DUALS = [
    *(lambda n=n: dual(fixtures.simplex_fano(n)) for n in range(1, 5)),
    *(lambda n=n: dual(fixtures.cross_polytope(n)) for n in range(2, 5)),
    lambda: dual(fixtures.hexagon()),
    lambda: dual(fixtures.cx5()),
]
FIXTURE_DUAL_IDS = [*(f"p{n}" for n in range(1, 5)), *(f"cross{n}" for n in range(2, 5)),
                    "hexagon", "cx5"]
# two of PRODUCT_PAIRS: their duals are products, where a facet meets facets of both factors
ADJACENCY_PAIRS = [("bl1", "bl2"), ("seg", "p4")]


def facet_adjacency(p):
    """{facet index: indices of the facets sharing a ridge with it}, from P's own incidence.

    P is simple, so two facets share a ridge exactly when they share a
    vertex; ``vertex_facets`` reads the facets at each vertex off P's
    incidence and raises ``MeasureError`` if P is not simple.
    """
    at = vertex_facets(p)
    return {i: set().union(*(at[v] for v in f.vertex_indices)) - {i} for i, f in enumerate(p.facets)}


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
    """#int(P) = (-1)^n L(-1) by Ehrhart-Macdonald reciprocity, L interpolated from its values at k = 0..n.

    L has degree n, so its (n+1)-st difference vanishes: exact Lagrange
    interpolation at -1 from the nodes 0..n is L(-1) = sum_k (-1)^k C(n+1, k+1) L(k).
    """
    n = p.dim
    counts = [1] + [count_lattice_points(p, k) for k in range(1, n + 1)]
    return (-1) ** n * sum((-1) ** k * comb(n + 1, k + 1) * c for k, c in enumerate(counts))


def _measured(dp):
    """The one ``cone_measures`` pass a check reads, with the Ehrhart part."""
    return cone_measures(dp.p, with_ehrhart=True)


def _conjectures(entry, **options):
    """The ``conjectures`` block of an entry's report."""
    return analyze_entry(entry, ScanOptions(conjectures=True, **options))["conjectures"]


class TestEq1:
    def test_plane(self, p2_pair):
        r = check_eq1(p2_pair, _measured(p2_pair))
        # a_0 = 1 vs (1/3) * 3 = 1: the inequality is sharp here
        assert r.a_n_minus_2 == 1
        assert r.third_of_codim2_vol == 1
        assert r.holds and r.equality

    def test_square_strict(self):
        dp = dual(fixtures.cross_polytope(2))
        r = check_eq1(dp, _measured(dp))
        assert r.a_n_minus_2 == 1
        assert r.third_of_codim2_vol == Fraction(4, 3)
        assert r.holds and not r.equality

    def test_counterexample_fixture(self, cx5_pair):
        r = check_eq1(cx5_pair, _measured(cx5_pair))
        assert r.a_n_minus_2 == Fraction(223, 3)
        assert r.third_of_codim2_vol == Fraction(290, 3)
        assert r.holds and not r.equality

    def test_paper_examples_q1_to_q3(self, q1_pair, q2_pair):
        # the paper's 7- and 8-dimensional examples: (a_(n-2), ridge volume / 3)
        expected = [
            (q1_pair, Fraction(10486, 15), 920),
            (q2_pair, Fraction(9336, 5), Fraction(110944, 45)),
            (dual(fixtures.q3()), Fraction(66389, 45), Fraction(89404, 45)),
        ]
        for dp, a, third in expected:
            r = check_eq1(dp, _measured(dp))
            assert (r.a_n_minus_2, r.third_of_codim2_vol) == (a, third)
            assert r.holds and not r.equality

    def test_dimension_floor(self):
        dp = dual(fixtures.segment())
        with pytest.raises(ValueError):
            check_eq1(dp, _measured(dp))


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
         fixtures.hexagon, fixtures.cx5, fixtures.q1,
         *(lambda pair=pair: free_sum(*(hull(SUMMANDS[s]) for s in pair)) for pair in ADJACENCY_PAIRS)],
        ids=[*(f"p{n}" for n in range(1, 5)), *(f"cross{n}" for n in range(2, 5)),
             "hexagon", "cx5", "q1", *("+".join(pair) for pair in ADJACENCY_PAIRS)],
    )
    def test_adjacency_matches_ridges(self, make):
        p = dual(make()).p
        expected = {i: set() for i in range(len(p.facets))}
        for _, (i, j) in faces_codim2(p):
            expected[i].add(j)
            expected[j].add(i)
        assert facet_adjacency(p) == expected

    def test_adjacency_rejects_non_simple(self):
        # the octahedron has four facets through each vertex
        with pytest.raises(MeasureError, match="lies on 4 facets"):
            facet_adjacency(fixtures.cross_polytope(3))

    def test_rejects_non_simple(self):
        # the cube is reflexive with four vertices per facet, so its dual, the octahedron, is not simple
        with pytest.raises(MeasureError, match="not simple"):
            check_conj11(dual(fixtures.cube(3)))

    def test_non_ke_entry_scans_without_warning(self):
        # b_P != 0 for P^2 blown up at a point: is_ke records it, and conj11 still has a record per facet
        rows = ((1, 0), (0, 1), (-1, -1), (1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze_entry(("bl1", 2, rows), ScanOptions(conjectures=True))
        assert report["is_ke"] is False
        records = report["conjectures"]["conj11"]
        assert [r["facet_index"] for r in records] == list(range(len(rows)))

    @pytest.mark.parametrize("name", ["cx5_pair", "q1_pair", "q2_pair"])
    def test_records_carry_certificates(self, request, name):
        # each record's verdict comes with an exact point or witness for its own facet
        dp = request.getfixturevalue(name)
        p = dp.p
        adjacency = facet_adjacency(p)
        for rec in check_conj11(dp):
            f = p.facets[rec.facet_index]
            assert rec.facet_normal == f.normal
            ineqs = [(p.facets[j].normal, Fraction(1, 2)) for j in sorted(adjacency[rec.facet_index])]
            res = feasible_point(ineqs, [(f.normal, Fraction(f.rhs))])
            assert (res.status == "optimal") == rec.feasible
            system = ineqs + [(f.normal, f.rhs), (tuple(-x for x in f.normal), -f.rhs)]
            if rec.feasible:
                assert_point(res.point, system)
            else:
                assert_farkas(res.farkas, system)


def _conj11_both_ways(dp):
    """``check_conj11`` without a group and with the Fano-side group, which must agree."""
    alone = check_conj11(dp)
    assert check_conj11(dp, polytope_automorphisms(dp.q)) == alone
    return alone


def _counted_stages(monkeypatch):
    """Record the facet of each witness (``_facet_feasible``) and the system of each LP (``feasible_point``)."""
    witnesses, lps = [], []
    witness, solve = conjectures._facet_feasible, conjectures.feasible_point
    monkeypatch.setattr(conjectures, "_facet_feasible", lambda dp, i: witnesses.append(i) or witness(dp, i))
    monkeypatch.setattr(conjectures, "feasible_point",
                        lambda ineqs, eqs: lps.append((ineqs, eqs)) or solve(ineqs, eqs))
    return witnesses, lps


class TestConj11Orbits:
    """The witness-first records, per facet or per orbit, equal those of one LP per facet."""

    @pytest.mark.parametrize("make", FIXTURE_DUALS, ids=FIXTURE_DUAL_IDS)
    def test_fixture_duals_match_per_facet(self, make):
        dp = make()
        assert _conj11_both_ways(dp) == _conj11_per_facet(dp)

    def test_bl1_matches_per_facet(self):
        dp = dual(hull(SUMMANDS["bl1"]))
        assert _conj11_both_ways(dp) == _conj11_per_facet(dp)

    @pytest.mark.parametrize("name", ["q1", "q2"])
    def test_q_matches_per_facet(self, request, name):
        dp = request.getfixturevalue(f"{name}_pair")
        assert _conj11_both_ways(dp) == _conj11_per_facet(dp)

    @pytest.mark.parametrize("pair", PRODUCT_PAIRS, ids=["+".join(p) for p in PRODUCT_PAIRS])
    def test_free_sums_match_per_facet(self, pair):
        dp = dual(free_sum(*(hull(SUMMANDS[s]) for s in pair)))
        assert _conj11_both_ways(dp) == _conj11_per_facet(dp)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([*PRODUCT_PAIRS, *((s,) for s in SUMMANDS), ("cx5",)]), st.randoms(use_true_random=False))
    def test_lattice_images_match_per_facet(self, names, rng):
        # under U in GL(n, Z) the group is U G U^-1 and the facets come in another order
        parts = [fixtures.cx5() if s == "cx5" else hull(SUMMANDS[s]) for s in names]
        q = parts[0] if len(parts) == 1 else free_sum(*parts)
        u = _elementary_unimodular(q.dim, rng)
        dp = dual(hull([mat_vec(u, v) for v in q.vertices]))
        assert check_conj11(dp, polytope_automorphisms(dp.q)) == _conj11_per_facet(dp)

    @pytest.mark.parametrize(
        "name, lps",
        [("p2_pair", 0), ("cross3_pair", 0), ("hexagon_pair", 0), ("cx5_pair", 2),
         ("q1_pair", 0), ("q2_pair", 0)],
    )
    def test_lp_only_where_the_witness_fails(self, request, monkeypatch, name, lps):
        dp = request.getfixturevalue(name)
        witnesses, calls = _counted_stages(monkeypatch)
        records = check_conj11(dp)
        assert witnesses == list(range(len(dp.p.facets)))
        assert len(calls) == lps
        # the vertex average is a point on every feasible facet: only cx5's two infeasible ones reach the LP
        assert {eqs[0][0] for _, eqs in calls} == {r.facet_normal for r in records if not r.feasible}
        # read off Q's facet rows, each LP bounds exactly the neighbours P's own incidence gives
        adjacency, at = facet_adjacency(dp.p), {f.normal: i for i, f in enumerate(dp.p.facets)}
        for ineqs, eqs in calls:
            assert ineqs == [(dp.p.facets[j].normal, Fraction(1, 2)) for j in sorted(adjacency[at[eqs[0][0]]])]

    @pytest.mark.parametrize("name, orbits, lps", [("cx5_pair", 2, 1), ("q1_pair", 4, 0), ("q2_pair", 5, 0)])
    def test_one_witness_per_orbit_with_the_group(self, request, monkeypatch, name, orbits, lps):
        dp = request.getfixturevalue(name)
        g = polytope_automorphisms(dp.q)
        witnesses, calls = _counted_stages(monkeypatch)
        records = check_conj11(dp, g)
        # each orbit of vert(Q), the facets of P, is decided at its least index
        seen, least = set(), []
        for i in range(len(dp.q.vertices)):
            if i not in seen:
                least.append(i)
                seen.update(symmetry.index_orbit(i, g.permutations))
        assert witnesses == least and len(least) == orbits
        # cx5's infeasible facets 3 and 5 are one orbit, so one LP decides both
        assert len(calls) == lps
        assert [r.facet_index for r in records if not r.feasible] == ([3, 5] if lps else [])


class TestEhrhartBound:
    # a P that is not reflexive is refused before its measures are read, and
    # the Ehrhart part of ``cone_measures`` refuses it too, so those tests pass None
    def test_plane_is_sharp(self, p2_pair):
        r = check_ehrhart_bound(p2_pair, _measured(p2_pair))
        assert r.vol == r.bound == Fraction(9, 2)
        assert r.holds and r.equality
        assert r.simplex_shape is True

    def test_square_strict(self):
        dp = dual(fixtures.cross_polytope(2))
        r = check_ehrhart_bound(dp, _measured(dp))
        assert r.vol == 4
        assert r.bound == Fraction(9, 2)
        assert r.holds and not r.equality
        assert r.simplex_shape is None

    def test_counterexample_fixture(self, cx5_pair):
        r = check_ehrhart_bound(cx5_pair, _measured(cx5_pair))
        assert r.vol == Fraction(301, 10)
        assert r.bound == Fraction(324, 5)
        assert r.holds
        assert r.known_bound_holds

    def test_rejects_extra_interior_points(self):
        # 2P for P the square: nine interior lattice points
        dp = DualPair(q=None, p=hull([(-2, -2), (2, -2), (-2, 2), (2, 2)]))
        with pytest.raises(ValueError):
            check_ehrhart_bound(dp, None)

    def test_rejects_origin_on_boundary(self):
        # (1, 1) is the one interior lattice point; the origin is a vertex
        dp = DualPair(q=None, p=hull([(0, 0), (3, 0), (0, 3)]))
        with pytest.raises(ValueError):
            check_ehrhart_bound(dp, None)

    def test_reflexive_in_high_dimension(self, q1_pair):
        r = check_ehrhart_bound(q1_pair, _measured(q1_pair))
        assert r.holds

    def test_rejects_non_reflexive_in_high_dimension(self):
        # twice the reflexive simplex conv(e_i, -sum e_i): every facet at distance 2
        corners = [tuple(2 * (i == j) for j in range(6)) for i in range(6)] + [(-2,) * 6]
        dp = DualPair(q=None, p=hull(corners))
        with pytest.raises(ValueError):
            check_ehrhart_bound(dp, None)


class TestBishop:
    def test_plane_is_sharp(self, p2_pair):
        r = check_bishop(p2_pair, _measured(p2_pair), fano_index(p2_pair.p))
        assert r.index == 3
        assert r.degree == 9
        assert r.lhs == r.bound == 27
        assert r.holds and r.sharp

    def test_counterexample_fixture(self, cx5_pair):
        r = check_bishop(cx5_pair, _measured(cx5_pair), fano_index(cx5_pair.p))
        assert r.lhs == 3612
        assert r.bound == 46656
        assert r.holds and not r.sharp


class TestConjecturesBlock:
    def test_dimension_one_skips_eq1(self):
        block = _conjectures(("p1", 1, fixtures.segment().vertices))
        assert block["eq1"] is None
        assert block["ehrhart_bound"]["holds"]
        assert block["bishop"]["holds"]

    def test_counterexample_report(self):
        block = _conjectures(("cx5", 5, fixtures.CX5_VERTICES))
        assert block["eq1"] is not None and block["eq1"]["holds"]
        assert sum(1 for f in block["conj11"] if not f["feasible"]) == 2
        assert block["ehrhart_bound"]["holds"]
        assert block["bishop"]["holds"]

    def test_eq1_skipped_above_the_cap(self):
        assert _conjectures(("cx5", 5, fixtures.CX5_VERTICES), ehrhart_max_dim=4)["eq1"] is None


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
