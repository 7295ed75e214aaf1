import gc
import hashlib
import json
import os
import re
import types
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricfano
from test_measures import PRODUCT_PAIRS, _free_sum_rows
from test_symmetry import _elementary_unimodular
from toricfano import criteria, fixtures, measures, polytope, symmetry
from toricfano import io as scan_io
from toricfano.cli import main
from toricfano.io import (
    ParseError,
    ScanOptions,
    analyze_entry,
    emit,
    fmt_rat,
    parse,
    scan,
    unparse,
)
from toricfano.linalg import mat_vec, matrix_inverse_unimodular, transpose
from toricfano.measures import volume_and_barycenter
from toricfano.polytope import free_sum

GOOD = """\
# two entries, with comments and blank lines

polytope plane
dim 2
vertices 3
1 0
0 1
-1 -1
end

polytope cross
dim 2
vertices 4
1 0
0 1
-1 0
0 -1
end
"""


# the keys of a smooth entry's report with conjectures and the Ehrhart part
SMOOTH_KEYS = {
    "name", "dim", "n_vertices", "is_smooth_fano", "is_reflexive", "barycenter", "is_ke", "is_symmetric",
    "group_order", "group_order_dual", "fixed_dim", "fixed_dim_dual", "fixed_generator", "vertex_sum",
    "alpha", "lct", "tian_holds", "volume", "degree", "fano_index", "ehrhart", "conjectures",
}

# degenerate entries first: a segment and a collinear triple in the plane
MIXED = """\
polytope flat
dim 2
vertices 2
1 0
-1 0
end

polytope line
dim 2
vertices 3
1 1
2 2
3 3
end

""" + GOOD


# parse's keywords, comments, names and integers in and out of place, with odd spacing
TOKENS = st.sampled_from(["polytope", "dim", "vertices", "end", "#", "a", "b", "0", "1", "-1", "2", "x", "+3", "1.5", "\t"])
SOUP_LINE = st.lists(TOKENS, max_size=4).map(" ".join)
SOUP = st.lists(SOUP_LINE, max_size=14).map("\n".join)
ENTRY = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.sampled_from("abc"), st.just(n), st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=3)))


@st.composite
def mutated_files(draw):
    """A valid file's lines with a few deleted, inserted from ``SOUP_LINE`` or repeated."""
    lines = unparse(draw(st.lists(ENTRY, max_size=3))).splitlines()
    for at, line in draw(st.lists(st.tuples(st.integers(0, 40), st.none() | SOUP_LINE | st.just("repeat")), max_size=3)):
        at %= len(lines) + 1
        if line is None:
            del lines[at:at + 1]
        else:
            lines.insert(at, lines[at - 1] if line == "repeat" and at else line)
    return "\n".join(lines)


_ADJUGATE = polytope.adjugate


def _blind_in_dimension_5(m):
    """``adjugate``, but all zeros for the 6 x 6 rows (p, 1) of a 5-dimensional start simplex."""
    d, adj = _ADJUGATE(m)
    return (d, ((0,) * 6,) * 6) if len(m) == 6 else (d, adj)


class TestParse:
    def test_two_entries(self):
        pf = parse(GOOD)
        assert [e[0] for e in pf.entries] == ["plane", "cross"]
        name, dim, rows = pf.entry("plane")
        assert dim == 2
        assert rows == ((1, 0), (0, 1), (-1, -1))

    def test_missing_entry_raises_keyerror(self):
        with pytest.raises(KeyError):
            parse(GOOD).entry("nope")

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("polytope a\npolytope b\n", 2),          # dim line missing
            ("polytope a\ndim x\n", 2),               # non-integer dim
            ("polytope a\ndim 0\n", 2),               # dim must be positive
            ("polytope a\ndim 2\nvertices 1\n1 2 3\nend\n", 4),  # row too long
            ("polytope a\ndim 2\nvertices 2\n1 0\nend\n", 5),    # early end
            ("polytope a\ndim 2\nvertices 1\n1 q\nend\n", 4),    # bad token
            ("bogus a\n", 1),                         # wrong keyword
            ("polytope a b\n", 1),                    # extra name token
            ("polytope a\ndim 1\nvertices 2\n1\n-1\nend junk\n", 6),    # extra token after 'end'
        ],
    )
    def test_error_line_numbers(self, text, line_no):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line_no == line_no

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("bogus a\n", 1, "expected 'polytope NAME', got 'bogus'"),
            ("# note\n\npolytope a b\n", 3, "expected exactly one name after 'polytope'"),
            ("polytope a\ndim 1\nvertices 2\n1\n-1\nend\n# again\npolytope a\n", 8, "duplicate polytope name 'a'"),
            ("polytope a\npolytope b\n", 2, "expected 'dim N'"),
            ("polytope a\n\ndim x\n", 3, "non-integer dimension 'x'"),
            ("polytope a\ndim 0\n", 2, "dimension must be positive"),
            ("polytope a\ndim 2\nvertices\n", 3, "expected 'vertices M'"),
            ("polytope a\ndim 2\nvertices x\n", 3, "non-integer vertex count 'x'"),
            ("polytope a\ndim 2\nvertices 0\n", 3, "vertex count must be positive"),
            ("polytope a\ndim 2\nvertices 2\n1 0\n  end\n", 5, "'end' after 1 of 2 vertex rows"),
            ("polytope a\ndim 2\nvertices 1\n 1  q \nend\n", 4, "non-integer token in vertex row: '1  q'"),
            ("polytope a\ndim 2\nvertices 1\n1 2 3\nend\n", 4, "vertex row has 3 coordinates, expected 2"),
            ("polytope a\ndim 1\nvertices 2\n1\n-1\nend junk\n", 6, "expected 'end'"),
            ("# c\n\npolytope a\ndim 2\nvertices 1\n1 0\n", 3, "polytope 'a' is missing its 'end'"),
        ],
        ids=["keyword", "name-count", "duplicate", "dim-line", "dim-int", "dim-positive", "vertices-line",
             "vertices-int", "vertices-positive", "early-end", "row-int", "row-length", "end-line", "missing-end"],
    )
    def test_error_messages(self, text, line_no, message):
        """Each of ``parse``'s raise sites, by message and by the line it names."""
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line_no, str(exc.value)) == (line_no, f"line {line_no}: {message}")

    @given(st.one_of(SOUP, mutated_files(), st.text(max_size=60)))
    @settings(max_examples=300, deadline=None)
    def test_token_soup(self, text):
        """Only ``ParseError`` escapes, and what parses is read back from ``unparse`` unchanged."""
        try:
            pf = parse(text)
        except ParseError:
            return
        assert parse(unparse(pf.entries)) == pf

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse(GOOD + GOOD)

    def test_truncated_file(self):
        with pytest.raises(ParseError) as exc:
            parse("polytope a\ndim 2\nvertices 1\n1 0\n")
        assert exc.value.line_no == 1

    def test_corpus_round_trip(self):
        entries = fixtures.corpus_entries()
        pf = parse(fixtures.corpus_text(entries))
        assert len(pf.entries) >= 14
        assert [(name, rows) for name, _, rows in pf.entries] == [(name, tuple(rows)) for name, rows in entries]


class TestFormatting:
    def test_fmt_rat(self):
        assert fmt_rat(0) == "0"
        assert fmt_rat(7) == "7"
        assert fmt_rat(Fraction(-9, 6)) == "-3/2"
        assert fmt_rat(Fraction(4, 2)) == "2"


class TestAnalyze:
    def test_plane_report(self):
        entry = parse(GOOD).entry("plane")
        r = analyze_entry(entry)
        assert r["name"] == "plane"
        assert r["is_smooth_fano"] and r["is_reflexive"]
        assert r["is_ke"] and r["is_symmetric"]
        assert r["barycenter"] == ["0", "0"]
        assert r["group_order"] == 6
        assert r["alpha"] == "1" and r["lct"] == "1"
        assert r["volume"] == "9/2" and r["degree"] == "9"
        assert r["fano_index"] == 3
        assert r["ehrhart"] == ["1", "9/2", "9/2"]
        assert "seconds" not in r

    def test_non_smooth_entry_gets_certificate(self):
        r = analyze_entry(("bad", 2, ((2, 1), (-1, 0), (0, -1))))
        assert r["is_smooth_fano"] is False
        assert isinstance(r["certificate"], str) and r["certificate"]
        assert "is_ke" not in r

    def test_degenerate_entry_gets_hull_certificate(self):
        r = analyze_entry(parse(MIXED).entry("flat"))
        assert r == {
            "name": "flat",
            "dim": 2,
            "n_vertices": None,
            "is_smooth_fano": False,
            "certificate": "hull: too few points to span the space",
        }

    def test_hull_invariant_becomes_a_certificate(self, monkeypatch):
        # an adjugate gone blind in dimension 5 leaves cx5's start simplex a zero normal but not
        # p2's or cross3's; the pool's workers are forked, so they run the patched module too
        entries = [("p2", fixtures.simplex_fano(2).vertices), ("cx5", fixtures.CX5_VERTICES),
                   ("cross3", fixtures.cross_polytope(3).vertices)]
        pf = parse(fixtures.corpus_text(entries))
        monkeypatch.setattr(polytope, "adjugate", _blind_in_dimension_5)
        serial = scan(pf, ScanOptions(conjectures=True))
        assert [r["is_smooth_fano"] for r in serial] == [True, False, True]
        assert {**serial[1], "certificate": None} == {
            "name": "cx5", "dim": 5, "n_vertices": None, "is_smooth_fano": False, "certificate": None}
        assert re.fullmatch(r"hull: the hyperplane through points \[[\d, ]+\] has a zero normal", serial[1]["certificate"])
        assert emit(scan(pf, ScanOptions(conjectures=True, jobs=2))) == emit(serial)

    def test_broken_first_basis_becomes_a_certificate(self, monkeypatch):
        # a first inverse of zero columns leaves every ridge crossing t = 0
        entry = ("p3", 3, fixtures.simplex_fano(3).vertices)
        monkeypatch.setattr(polytope, "inverse_columns", lambda m: (1, ((0,) * len(m),) * len(m)))
        r = analyze_entry(entry, ScanOptions(conjectures=True))
        assert r["is_smooth_fano"] is False and r["n_vertices"] is None
        assert re.fullmatch(r"hull: crossing a ridge to point \([-\d, ]+\) gives t = 0", r["certificate"])

    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=9))))
    @settings(max_examples=200, deadline=None)
    def test_random_point_sets_get_a_report(self, case):
        # the smooth keys or a certificate, never an exception
        n, rows = case
        r = analyze_entry(("fuzz", n, tuple(rows)), ScanOptions(conjectures=True))
        if r["is_smooth_fano"]:
            assert set(r) == SMOOTH_KEYS
        else:
            assert set(r) == {"name", "dim", "n_vertices", "is_smooth_fano", "certificate"}
            assert isinstance(r["certificate"], str) and r["certificate"]

    @pytest.mark.parametrize("rows, extra, certificate", [
        (fixtures.simplex_fano(2).vertices, (0, 0), None),
        (((-1, -1), (1, -1), (0, 1)), (0, -1), "determinant 2"),
        (((2, 0), (0, 2), (-1, 0), (0, -1)), (1, 1), "not primitive"),
    ], ids=["p2_origin", "edge_midpoint_determinant_2", "edge_midpoint_not_primitive"])
    def test_points_off_the_vertices_change_no_byte(self, rows, extra, certificate):
        # the hull inverts each simplicial facet by its vertices, whatever other rows lie on it
        options = ScanOptions(conjectures=True)
        report = analyze_entry(("q", 2, tuple(rows)), options)
        assert emit([analyze_entry(("q", 2, (*rows, extra)), options)]) == emit([report])
        assert report["is_smooth_fano"] if certificate is None else certificate in report["certificate"]

    def test_ehrhart_dim_cap(self):
        entry = parse(GOOD).entry("plane")
        r = analyze_entry(entry, ScanOptions(ehrhart_max_dim=1))
        assert "ehrhart" not in r

    def test_raised_cap_reaches_dimension_seven(self):
        r = analyze_entry(("q1", 7, fixtures.Q1_VERTICES), ScanOptions(conjectures=True, ehrhart_max_dim=8))
        assert len(r["ehrhart"]) == 8
        assert r["ehrhart"][0] == "1" and r["ehrhart"][7] == r["volume"]
        eq1 = r["conjectures"]["eq1"]
        assert (eq1["a_n_minus_2"], eq1["third_of_codim2_vol"]) == ("10486/15", "920")
        assert eq1["holds"] and not eq1["equality"]

    def test_timing_flag(self):
        entry = parse(GOOD).entry("plane")
        r = analyze_entry(entry, ScanOptions(timing=True))
        assert isinstance(r["seconds"], float)


class TestNoReferenceCycles:
    def test_entry_leaves_no_function_garbage(self):
        # hexagon (+) P3, the free sum of two small smooth Fano polytopes
        rows = [v + (0, 0, 0) for v in fixtures.HEXAGON_VERTICES]
        rows += [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (0, 0, -1, -1, -1)]
        volume_and_barycenter.cache_clear()
        gc.collect()
        gc.garbage.clear()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            analyze_entry(("hex+p3", 5, tuple(rows)), ScanOptions(conjectures=True))
            gc.collect()
            leaked = [
                f"{o.__module__}.{o.__qualname__}"
                for o in gc.garbage
                if isinstance(o, types.FunctionType) and o.__module__.startswith("toricfano")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []


STAGES = ("cone_measures", "fano_index", "check_eq1", "check_conj11", "check_ehrhart_bound", "check_bishop")
# (module, name) of every per-entry stage, patched where the scan calls it
PATCHED = [(scan_io, name) for name in STAGES + ("polytope_automorphisms",)] + [(criteria, "orbit_sums")]


def _counted(fn, counts, name):
    return lambda *args, **kwargs: counts.update([name]) or fn(*args, **kwargs)


class TestOnePassPerEntry:
    @staticmethod
    def _scan():
        """A --conjectures scan of smooth entries within the default Ehrhart cap
        (dim <= 5) and above it (dims 6 and 7), and a cube, which is not smooth."""
        polytopes = [
            ("p1", fixtures.simplex_fano(1)),
            ("p2", fixtures.simplex_fano(2)),
            ("cross3", fixtures.cross_polytope(3)),
            ("cube3", fixtures.cube(3)),
            ("hexagon", fixtures.hexagon()),
            ("cx5", fixtures.cx5()),
            ("hex+p3", free_sum(fixtures.hexagon(), fixtures.simplex_fano(3))),
            ("p2+p4", free_sum(fixtures.simplex_fano(2), fixtures.simplex_fano(4))),
            ("cx5+p1", free_sum(fixtures.cx5(), fixtures.segment())),
        ]
        entries = [(name, p.vertices) for name, p in polytopes] + [("q1", fixtures.Q1_VERTICES)]
        reports = scan(parse(fixtures.corpus_text(entries)), ScanOptions(conjectures=True))
        smooth = [r for r in reports if r["is_smooth_fano"]]
        assert len(smooth) == len(entries) - 1
        assert {"ehrhart" in r for r in smooth} == {True, False}
        return smooth

    def test_vertex_cones_built_once_per_smooth_entry(self, monkeypatch):
        built = []
        cones = measures.vertex_cones
        monkeypatch.setattr(measures, "vertex_cones", lambda p: built.append(p) or cones(p))
        smooth = self._scan()
        assert len(built) == len(smooth)

    def test_dual_cones_need_no_incidence(self, monkeypatch, corpus_file):
        """``dual`` hands each smooth entry's P its cone inverses, so no scan inverts P's incidence."""
        calls = Counter()
        monkeypatch.setattr(measures, "vertex_facets", _counted(measures.vertex_facets, calls, "vertex_facets"))
        reports = scan(corpus_file, ScanOptions(conjectures=True))
        assert sum(r["is_smooth_fano"] for r in reports) == 12
        assert calls == Counter()

    def test_vertex_permutations_only_of_q(self, monkeypatch):
        """The verdict reads the search's own permutations of vert(Q): no scan calls
        ``fixed_space`` or forms a generator matrix, and no entry permutes vert(P)."""
        calls, sizes = Counter(), []
        for module in (criteria, symmetry):
            monkeypatch.setattr(module, "fixed_space", _counted(module.fixed_space, calls, "fixed_space"))
        generators = symmetry.SymmetryGroup.generators.fget
        monkeypatch.setattr(symmetry.SymmetryGroup, "generators", property(_counted(generators, calls, "generators")))
        sums = criteria.orbit_sums
        monkeypatch.setattr(criteria, "orbit_sums",
                            lambda dp, g: sizes.append({len(p) for p in g.permutations}) or sums(dp, g))
        smooth = self._scan()
        assert calls == Counter()
        assert sizes == [{r["n_vertices"]} if r["group_order"] > 1 else set() for r in smooth]

    def test_each_stage_called_once_per_smooth_entry(self, monkeypatch):
        counts = Counter()
        for module, name in PATCHED:
            monkeypatch.setattr(module, name, _counted(getattr(module, name), counts, name))
        smooth = self._scan()
        eq1 = sum(2 <= r["dim"] <= ScanOptions().ehrhart_max_dim for r in smooth)
        assert 0 < eq1 < len(smooth)
        assert counts == {**{name: len(smooth) for _, name in PATCHED}, "check_eq1": eq1}


# Q's vertex rows for the whole-entry metamorphic test: fixtures and the
# small-fano free sums
LATTICE_SOURCES = [
    ("p2", fixtures.simplex_fano(2).vertices),
    ("cross3", fixtures.cross_polytope(3).vertices),
    ("hexagon", fixtures.hexagon().vertices),
    ("cx5", fixtures.CX5_VERTICES),
    ("q1", fixtures.Q1_VERTICES),
] + [("+".join(pair), tuple(_free_sum_rows(pair))) for pair in PRODUCT_PAIRS]
# report keys a change of lattice basis leaves unchanged
BASIS_FREE_KEYS = (
    "is_smooth_fano", "is_reflexive", "is_ke", "is_symmetric", "group_order", "group_order_dual",
    "fixed_dim", "fixed_dim_dual", "alpha", "lct", "tian_holds", "volume", "degree", "fano_index", "ehrhart",
)


def _basis_free(r):
    conj = r["conjectures"]
    return (
        {k: r.get(k) for k in BASIS_FREE_KEYS},
        {k: conj[k] for k in ("eq1", "ehrhart_bound", "bishop")},
        Counter(f["feasible"] for f in conj["conj11"]),
    )


@given(st.sampled_from(LATTICE_SOURCES), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_whole_entry_under_lattice_basis_change(source, rng):
    """analyze_entry(U Q) is analyze_entry(Q) moved by U in GL(n, Z), rows shuffled.

    Q's vectors (vertex sum, fixed generator up to sign) map by U, and P's
    barycenter by U^-T, since P = Q* is moved by the inverse transpose.
    """
    name, rows = source
    u = _elementary_unimodular(len(rows[0]), rng)
    moved = [mat_vec(u, v) for v in rows]
    rng.shuffle(moved)
    options = ScanOptions(conjectures=True)
    r, ru = analyze_entry((name, len(u), rows), options), analyze_entry((name, len(u), moved), options)
    assert r["is_smooth_fano"]
    assert _basis_free(ru) == _basis_free(r)
    inverse_transpose = transpose(matrix_inverse_unimodular(u))
    assert ru["barycenter"] == [fmt_rat(b) for b in mat_vec(inverse_transpose, [Fraction(b) for b in r["barycenter"]])]
    assert ru["vertex_sum"] == list(mat_vec(u, r["vertex_sum"]))
    if r["fixed_generator"] is not None:
        g = mat_vec(u, r["fixed_generator"])
        assert ru["fixed_generator"] in (list(g), [-x for x in g])


class TestScanEmit:
    def test_scan_preserves_order(self):
        pf = parse(GOOD)
        reports = scan(pf)
        assert [r["name"] for r in reports] == ["plane", "cross"]

    def test_parallel_matches_serial(self):
        pf = parse(GOOD)
        serial = emit(scan(pf, ScanOptions(conjectures=True)))
        parallel = emit(scan(pf, ScanOptions(conjectures=True, jobs=2)))
        assert serial == parallel

    def test_pool_capped_at_entry_count(self, monkeypatch):
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        two = parse(GOOD)
        assert emit(scan(two, ScanOptions(jobs=8))) == emit(scan(two))
        one = parse(GOOD[: GOOD.index("polytope cross")])
        assert emit(scan(one, ScanOptions(jobs=8))) == emit(scan(one))
        assert sizes == [2]    # one entry runs serially, with no pool

    def test_json_is_deterministic(self):
        pf = parse(GOOD)
        assert emit(scan(pf)) == emit(scan(pf))

    def test_json_has_no_floats(self):
        pf = parse(GOOD)
        data = json.loads(emit(scan(pf, ScanOptions(conjectures=True))))

        def walk(x):
            if isinstance(x, float):
                raise AssertionError(f"float leaked into report: {x}")
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)

        walk(data)

    def test_csv(self):
        pf = parse(GOOD)
        lines = emit(scan(pf), "csv").decode().splitlines()
        assert lines[0].startswith("name,dim,n_vertices")
        assert lines[1].split(",")[0] == "plane"
        assert len(lines) == 3

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml")


class TestGoldenReport:
    def test_corpus_report_bytes_unchanged(self, corpus_reports):
        golden = Path(__file__).parent / "data" / "corpus_report.json"
        assert emit(corpus_reports) == golden.read_bytes()

    def test_golden_is_what_json_writes(self, corpus_reports):
        golden = Path(__file__).parent / "data" / "corpus_report.json"
        assert (json.dumps(corpus_reports, indent=2) + "\n").encode() == golden.read_bytes()


# what a report can hold, and the strings json escapes: quotes, backslashes, control and non-ASCII characters
JSON_LEAVES = (st.text(st.characters(codec="utf-8")) | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é ✓ 𝔽"])
               | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 200).map(lambda n: n * (-1) ** n)
               | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, x):
        assert emit(x) == (json.dumps(x, indent=2) + "\n").encode()

    def test_empty_and_nested_containers(self):
        x = {"": [], "a": {}, "b": [[], {}, ()], "c": ({"d": None},)}
        assert emit(x) == (json.dumps(x, indent=2) + "\n").encode()

    @pytest.mark.parametrize("x", [Fraction(1, 2), {1, 2}, b"bytes", object()])
    def test_refuses_what_json_refuses(self, x):
        # a report holds no such value; writing its repr would not be JSON
        pytest.raises(TypeError, json.dumps, [x], indent=2)
        with pytest.raises(TypeError):
            emit([x])

    def test_timing_seconds(self):
        reports = scan(parse(GOOD), ScanOptions(conjectures=True, timing=True))
        assert all(type(r["seconds"]) is float for r in reports)
        assert emit(reports) == (json.dumps(reports, indent=2) + "\n").encode()


class TestFixtureIntegrity:
    """The embedded matrices are load-bearing; pin them byte-for-byte."""

    @staticmethod
    def digest(rows):
        blob = ";".join(",".join(str(x) for x in row) for row in rows)
        return hashlib.sha256(blob.encode()).hexdigest()

    def test_q1(self):
        assert self.digest(fixtures.Q1_VERTICES) == (
            "104c695d0e3d0e34f607723990fe67cba9ba77898bd40f08a8428613ba30125c"
        )

    def test_q3(self):
        assert self.digest(fixtures.Q3_VERTICES) == (
            "0a462e5b692ca39dcfc2a8451f1b659b69d35734ad2d1e89b58df9b4e67a44f6"
        )

    def test_cx5(self):
        assert self.digest(fixtures.CX5_VERTICES) == (
            "130a9bc0c78a297b4e38bf922ad508bb1ae33b044fe293d5e480b333e0dd5328"
        )


class TestCLI:
    @pytest.fixture()
    def good_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(GOOD)
        return str(path)

    def test_check(self, good_file, capsys):
        assert main(["check", good_file, "--name", "plane"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["name"] == "plane"
        assert data[0]["is_ke"] is True

    def test_scan_to_file(self, good_file, tmp_path):
        out = tmp_path / "out.json"
        assert main(["scan", good_file, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert [r["name"] for r in data] == ["plane", "cross"]

    def test_scan_csv(self, good_file, capsys):
        assert main(["scan", good_file, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("name,")

    def test_dual(self, good_file, capsys):
        assert main(["dual", good_file, "--name", "plane"]) == 0
        out = capsys.readouterr().out
        pf = parse(out)
        _, dim, rows = pf.entry("plane_dual")
        assert dim == 2
        assert set(rows) == {(-1, -1), (-1, 2), (2, -1)}

    @pytest.mark.parametrize(
        ("name", "rows", "message"),
        [
            ("seg", "0 0\n1 1\n2 2", "points do not affinely span the space"),
            (
                "tri",
                "0 0\n2 0\n0 2",
                "dualization needs the origin strictly interior (origin is not strictly interior)",
            ),
        ],
        ids=["collinear", "origin-on-boundary"],
    )
    def test_dual_refused(self, tmp_path, capsys, name, rows, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"polytope {name}\ndim 2\nvertices 3\n{rows}\nend\n")
        with pytest.raises(SystemExit) as exc:
            main(["dual", str(path), "--name", name])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot dualize {name!r}: {message}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("bogus\n")
        with pytest.raises(SystemExit) as exc:
            main(["check", str(bad)])
        assert exc.value.code == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "/nonexistent/file.txt"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == "error: /nonexistent/file.txt: No such file or directory\n"

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(GOOD.encode() + b"\xff\xfe")
        with pytest.raises(SystemExit) as exc:
            main(["check", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")

    def test_byte_order_mark_is_read_past(self, tmp_path, capsysbinary):
        path = tmp_path / "bom.txt"
        outs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(mark + GOOD.encode())
            assert main(["check", str(path)]) == 0
            outs.append(capsysbinary.readouterr().out)
        assert outs[0] == outs[1] != b""
        path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode() + b"\xff\xfe")
        with pytest.raises(SystemExit) as exc:
            main(["check", str(path)])
        assert exc.value.code == 1
        assert capsysbinary.readouterr().err.startswith(f"error: {path}: 'utf-8' codec can't decode".encode())

    def test_unwritable_out_exit_code(self, good_file, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["scan", good_file, "--out", str(out)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_unwritable_out_fails_before_the_scan(self, good_file, tmp_path, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("scan ran before --out was opened")

        monkeypatch.setattr("toricfano.cli.scan", no_scan)
        out = tmp_path / "missing" / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["scan", good_file, "--out", str(out)])
        assert exc.value.code == 1
        assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"

    def test_failed_scan_keeps_the_old_report(self, good_file, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("toricfano.cli.scan", interrupted)
        out = tmp_path / "r.json"
        out.write_bytes(b"old report\n")
        with pytest.raises(KeyboardInterrupt):
            main(["scan", good_file, "--out", str(out)])
        assert out.read_bytes() == b"old report\n"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, good_file, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["scan", good_file, "--jobs", jobs])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --jobs must be at least 1, not {jobs}\n"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: toricfano scan")

    def test_missing_name_exit_code(self, good_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", good_file, "--name", "missing"])
        assert exc.value.code == 1

    def test_scan_continues_past_degenerate_entries(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text(MIXED)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out-{jobs}.json"
            assert main(["scan", str(path), "--conjectures", "--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        data = json.loads(outs[0])
        assert [r["name"] for r in data] == ["flat", "line", "plane", "cross"]
        for r in data[:2]:
            assert r["n_vertices"] is None and r["is_smooth_fano"] is False
            assert r["certificate"].startswith("hull: ")
        assert all(r["is_smooth_fano"] and "conjectures" in r for r in data[2:])

    def test_console_script_runs(self, good_file):
        # the child imports the package from the same tree as this process
        src = str(Path(toricfano.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, "-m", "toricfano.cli", "scan", good_file, "--format", "csv"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("name,")
