"""End-to-end acceptance suite.

Every comparison is exact; no tolerances appear anywhere.  Heavy
whole-corpus analysis is shared through the session-scoped
``corpus_reports`` fixture.
"""

import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from toricfano import fixtures
from toricfano.conjectures import check_conj11
from toricfano.criteria import full_verdict, lct
from toricfano.io import ScanOptions, analyze_entry, emit, scan
from toricfano.linalg import dot
from toricfano.measures import (
    boundary_volume,
    count_lattice_points,
    count_lattice_points_bruteforce,
    ehrhart,
    volume_and_barycenter,
)
from toricfano.polytope import dual, free_sum, is_smooth_fano, segment
from toricfano.symmetry import automorphism_group, fixed_space, trivial_group, vertex_sum


def report(corpus_reports, name):
    return next(r for r in corpus_reports if r["name"] == name)


def smooth_reports(corpus_reports):
    return [r for r in corpus_reports if r["is_smooth_fano"]]


def assert_headline_verdicts(r):
    """The five shared verdicts of the non-symmetric Einstein examples."""
    assert r["is_smooth_fano"] is True
    assert all(b == "0" for b in r["barycenter"])
    assert r["is_ke"] is True
    assert r["is_symmetric"] is False
    assert r["fixed_dim"] == 1
    assert r["alpha"] == "1/2"
    assert r["lct"] == "1/2"


class TestCriterion1Q1:
    def test_headline_reproduction(self, q1_pair, q1_groups):
        q, p = q1_pair.q, q1_pair.p
        assert q.dim == 7 and q.n_vertices == 12
        smooth, _ = is_smooth_fano(q)
        assert smooth
        # the dual is itself a lattice polytope
        assert all(isinstance(x, int) for v in p.vertices for x in v)
        assert p.is_reflexive()
        _, bary = volume_and_barycenter(p)
        assert bary == (0,) * 7

        v = full_verdict(q1_pair, groups=q1_groups)
        assert v.is_ke and not v.is_symmetric
        assert v.fixed_dim == 1
        assert v.alpha == Fraction(1, 2)
        assert v.lct == Fraction(1, 2)

        # fixed-space generator is parallel to the vertex sum
        gq, _ = q1_groups
        fs = fixed_space(gq)
        (gen,) = fs.basis
        vs = vertex_sum(q)
        assert any(x != 0 for x in vs)
        assert all(
            gen[i] * vs[j] == gen[j] * vs[i]
            for i in range(7)
            for j in range(7)
        )


class TestCriterion2Q2:
    def test_construction(self):
        q2 = free_sum(fixtures.q1(), segment())
        assert q2.dim == 8
        assert q2.n_vertices == 14
        assert set(q2.vertices) == set(fixtures.q2().vertices)

    def test_verdicts(self, corpus_reports):
        assert_headline_verdicts(report(corpus_reports, "q2"))


class TestCriterion3Q3:
    def test_verdicts(self, corpus_reports):
        r = report(corpus_reports, "q3")
        assert r["dim"] == 8 and r["n_vertices"] == 16
        assert_headline_verdicts(r)


class TestCriterion4ProductFamily:
    def test_dim9_product(self):
        q = fixtures.product_family(extra_factors=2)
        assert q.dim == 9
        dp = dual(q)
        v = full_verdict(dp)
        assert not v.is_symmetric
        assert v.barycenter == (0,) * 9
        assert v.is_ke

    @pytest.mark.parametrize("n", [7, 8])
    def test_products_of_projective_lines(self, n):
        """(P^1)^n: the cross polytope, whose group has 2^n n! elements."""
        r = analyze_entry((f"cross{n}", n, fixtures.cross_polytope(n).vertices))
        assert r["group_order"] == r["group_order_dual"] == 2**n * factorial(n)
        assert r["is_symmetric"]
        assert r["fixed_dim"] == 0
        assert r["alpha"] == "1"


class TestCriterion5Counterexample:
    def test_barycenter_zero(self, cx5_pair):
        _, bary = volume_and_barycenter(cx5_pair.p)
        assert bary == (0,) * 5

    def test_exactly_two_infeasible_facets(self, cx5_pair):
        records = check_conj11(cx5_pair)
        infeasible = {r.facet_normal for r in records if not r.feasible}
        assert infeasible == set(fixtures.CX5_BAD_DUAL_VERTICES)
        assert sum(1 for r in records if r.feasible) == len(records) - 2


class TestCriterion6FormulaAgreement:
    def test_alpha_equals_lct_corpus_wide(self, corpus_reports):
        for r in smooth_reports(corpus_reports):
            assert r["alpha"] == r["lct"], r["name"]

    def test_trivial_group_lct_against_oracle(self, p2_pair):
        g = trivial_group(2)
        oracle = 1 / (
            1
            + max(
                Fraction(dot(w, v))
                for w in p2_pair.p.vertices
                for v in p2_pair.q.vertices
            )
        )
        assert lct(p2_pair, g) == oracle == Fraction(1, 3)


class TestCriterion7GroupDuality:
    def test_orders_and_fixed_dims_agree(self, corpus_reports):
        for r in smooth_reports(corpus_reports):
            assert r["group_order"] == r["group_order_dual"], r["name"]
            assert r["fixed_dim"] == r["fixed_dim_dual"], r["name"]


class TestCriterion8SymmetricImpliesKE:
    def test_symmetric_entries_have_zero_barycenter(self, corpus_reports):
        symmetric = [r for r in smooth_reports(corpus_reports) if r["is_symmetric"]]
        assert symmetric
        for r in symmetric:
            assert all(b == "0" for b in r["barycenter"]), r["name"]
            assert r["is_ke"], r["name"]


class TestCriterion9EhrhartIdentities:
    def small_pairs(self):
        builders = [
            fixtures.simplex_fano(2),
            fixtures.simplex_fano(3),
            fixtures.simplex_fano(4),
            fixtures.cross_polytope(2),
            fixtures.cross_polytope(3),
            fixtures.cross_polytope(4),
            fixtures.hexagon(),
            fixtures.cx5(),
        ]
        return [dual(q) for q in builders]

    def test_coefficient_identities(self):
        for dp in self.small_pairs():
            p = dp.p
            n = p.dim
            e = ehrhart(p)
            vol, _ = volume_and_barycenter(p)
            assert e.coefficients[0] == 1
            assert e.coefficients[n] == vol
            assert e.coefficients[n - 1] == boundary_volume(p) / 2

    def test_counts_match_bruteforce(self):
        for dp in self.small_pairs():
            if dp.p.dim > 3:
                continue
            for k in (1, 2, 3):
                assert count_lattice_points(dp.p, k) == count_lattice_points_bruteforce(
                    dp.p, k
                )


class TestCriterion10Eq1:
    def test_holds_on_small_ke_corpus(self, corpus_reports):
        checked = []
        for r in smooth_reports(corpus_reports):
            eq1 = r["conjectures"]["eq1"]
            if eq1 is None:
                continue
            if not all(b == "0" for b in r["barycenter"]):
                continue
            assert r["dim"] <= 5
            assert eq1["holds"], r["name"]
            checked.append(r["name"])
        assert "p2" in checked and "cx5" in checked

    def test_equality_on_plane(self, corpus_reports):
        eq1 = report(corpus_reports, "p2")["conjectures"]["eq1"]
        assert eq1["equality"] is True


class TestCriterion11Bounds:
    def test_volume_bound_with_equality_on_projective_spaces(self, corpus_reports):
        for r in smooth_reports(corpus_reports):
            eb = r["conjectures"]["ehrhart_bound"]
            assert eb["holds"], r["name"]
            assert eb["known_bound_holds"], r["name"]
            expect_equality = r["name"] in {"p1", "p2", "p3", "p4"}
            assert eb["equality"] is expect_equality, r["name"]
            if expect_equality:
                assert eb["simplex_shape"] is True

    def test_bishop_sharp_exactly_on_projective_spaces(self, corpus_reports):
        for r in smooth_reports(corpus_reports):
            b = r["conjectures"]["bishop"]
            assert b["holds"], r["name"]
            assert b["sharp"] is (r["name"] in {"p1", "p2", "p3", "p4"}), r["name"]

    def test_fano_index_of_projective_spaces(self, corpus_reports):
        for n in (1, 2, 3, 4):
            assert report(corpus_reports, f"p{n}")["fano_index"] == n + 1


class TestCriterion12ScanEndToEnd:
    def test_exactly_three_nonsymmetric_ke_entries(self, corpus_reports):
        flagged = {
            r["name"]
            for r in smooth_reports(corpus_reports)
            if r["is_ke"] and not r["is_symmetric"]
        }
        assert flagged == {"q1", "q2", "q3"}

    def test_non_smooth_entries_are_certified_not_analyzed(self, corpus_reports):
        cubes = [r for r in corpus_reports if r["name"].startswith("cube")]
        assert len(cubes) == 3
        for r in cubes:
            assert r["is_smooth_fano"] is False
            assert r["certificate"]
            assert "is_ke" not in r

    @pytest.mark.slow
    def test_byte_identical_across_runs_and_parallelism(
        self, corpus_file, corpus_reports
    ):
        options = ScanOptions(conjectures=True, ehrhart_max_dim=5, jobs=4)
        assert emit(scan(corpus_file, options)) == emit(corpus_reports)

    def test_byte_identical_on_light_subcorpus(self):
        from toricfano.io import parse

        light = [e for e in fixtures.corpus_entries() if e[0] not in {"q1", "q2", "q3"}]
        pf = parse(fixtures.corpus_text(light))
        options = ScanOptions(conjectures=True, ehrhart_max_dim=5)
        first = emit(scan(pf, options))
        second = emit(scan(pf, options))
        parallel = emit(scan(pf, ScanOptions(conjectures=True, ehrhart_max_dim=5, jobs=2)))
        assert first == second == parallel


def test_readme_library_snippets_run():
    """The README's ``## Library`` code blocks run, in order, in one namespace."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec", optimize=0), namespace)    # asserts run under -O too
    assert namespace["v"].is_symmetric and namespace["b"].sharp
