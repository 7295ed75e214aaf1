"""Polytope-file parsing and writing, the batch scan pipeline, and report emission.

File grammar (whitespace-tolerant, '#' starts a comment line)::

    polytope NAME
    dim N
    vertices M
    <M lines of N space-separated integers>
    end

Rationals serialize as lowest-terms "p/q" (integer part only when the
denominator is 1, "0" for zero); floats never appear.
"""

import csv
import io as _io
import json
import time
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from math import factorial

from .conjectures import check_bishop, check_conj11, check_eq1, check_ehrhart_bound
from .criteria import full_verdict
from .measures import cone_measures, fano_index
from .polytope import PolytopeError, dual, hull, is_smooth_fano
from .symmetry import automorphism_group, vertex_sum


class ParseError(Exception):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class PolytopeFile:
    entries: tuple         # of (name, dim, vertex rows)

    def names(self):
        return [e[0] for e in self.entries]

    def entry(self, name):
        for e in self.entries:
            if e[0] == name:
                return e
        raise KeyError(name)


def parse(text) -> PolytopeFile:
    entries = []
    names = set()
    state = "top"
    name = dim = nverts = None
    rows = []
    start_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if state == "top":
            if tokens[0] != "polytope":
                raise ParseError(line_no, f"expected 'polytope NAME', got {tokens[0]!r}")
            if len(tokens) != 2:
                raise ParseError(line_no, "expected exactly one name after 'polytope'")
            name = tokens[1]
            if name in names:
                raise ParseError(line_no, f"duplicate polytope name {name!r}")
            names.add(name)
            start_line = line_no
            state = "dim"
        elif state == "dim":
            if tokens[0] != "dim" or len(tokens) != 2:
                raise ParseError(line_no, "expected 'dim N'")
            try:
                dim = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer dimension {tokens[1]!r}") from None
            if dim < 1:
                raise ParseError(line_no, "dimension must be positive")
            state = "vertices"
        elif state == "vertices":
            if tokens[0] != "vertices" or len(tokens) != 2:
                raise ParseError(line_no, "expected 'vertices M'")
            try:
                nverts = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"non-integer vertex count {tokens[1]!r}") from None
            if nverts < 1:
                raise ParseError(line_no, "vertex count must be positive")
            rows = []
            state = "rows"
        elif state == "rows":
            if tokens[0] == "end":
                raise ParseError(
                    line_no,
                    f"'end' after {len(rows)} of {nverts} vertex rows",
                )
            try:
                row = tuple(int(t) for t in tokens)
            except ValueError:
                raise ParseError(line_no, f"non-integer token in vertex row: {line!r}") from None
            if len(row) != dim:
                raise ParseError(
                    line_no,
                    f"vertex row has {len(row)} coordinates, expected {dim}",
                )
            rows.append(row)
            if len(rows) == nverts:
                state = "end"
        elif state == "end":
            if tokens[0] != "end":
                raise ParseError(line_no, "expected 'end'")
            entries.append((name, dim, tuple(rows)))
            state = "top"
    if state != "top":
        raise ParseError(
            start_line,
            f"polytope {name!r} is missing its 'end'",
        )
    return PolytopeFile(entries=tuple(entries))


def unparse(entries):
    """(name, dim, rows) entries as polytope-file text, which ``parse`` reads back."""
    lines = []
    for name, dim, rows in entries:
        lines += [f"polytope {name}", f"dim {dim}", f"vertices {len(rows)}"]
        lines += [" ".join(map(str, row)) for row in rows]
        lines.append("end")
    return "".join(line + "\n" for line in lines)


def fmt_rat(x):
    f = Fraction(x)
    if f == 0:
        return "0"
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _plain(x):
    """JSON-ready form: Fraction as ``fmt_rat``, sequences and dataclass fields recursively."""
    if isinstance(x, Fraction):
        return fmt_rat(x)
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    return x


@dataclass(frozen=True)
class ScanOptions:
    conjectures: bool = False
    ehrhart_max_dim: int = 5
    jobs: int = 1
    timing: bool = False


def analyze_entry(entry, options: ScanOptions = ScanOptions()):
    """One AnalysisReport dict for a (name, dim, rows) entry.

    Entries failing the smooth-Fano validation, or whose rows have no
    full-dimensional hull, get a certificate and no downstream analysis;
    this is data, not an error.
    """
    name, dim, rows = entry
    t0 = time.monotonic()
    report = {"name": name, "dim": dim, "n_vertices": None}
    try:
        q = hull(rows)
    except PolytopeError as exc:
        smooth, certificate = False, f"hull: {exc}"
    else:
        report["n_vertices"] = q.n_vertices
        smooth, certificate = is_smooth_fano(q)
    report["is_smooth_fano"] = smooth
    if not smooth:
        report["certificate"] = certificate
        if options.timing:
            report["seconds"] = time.monotonic() - t0
        return report
    dp = dual(q)
    n = dp.p.dim
    report["is_reflexive"] = dp.p.is_reflexive()
    groups = automorphism_group(dp)
    measured = cone_measures(dp.p, with_ehrhart=n <= options.ehrhart_max_dim)
    verdict = full_verdict(dp, groups=groups, measured=measured)
    report["barycenter"] = _plain(verdict.barycenter)
    report["is_ke"] = verdict.is_ke
    report["is_symmetric"] = verdict.is_symmetric
    # each pair of twin keys is one value: transport_group copies the order,
    # the fixed spaces share a dimension, and alpha is the lct
    report["group_order"] = report["group_order_dual"] = groups[0].order
    report["fixed_dim"] = report["fixed_dim_dual"] = verdict.fixed_dim
    report["fixed_generator"] = _plain(verdict.fixed_basis[0]) if verdict.fixed_dim == 1 else None
    report["vertex_sum"] = _plain(vertex_sum(q))
    report["alpha"] = report["lct"] = fmt_rat(verdict.lct)
    report["tian_holds"] = verdict.tian_holds
    vol, _, _, poly = measured
    report["volume"] = fmt_rat(vol)
    report["degree"] = fmt_rat(factorial(n) * vol)
    index = report["fano_index"] = fano_index(dp.p)
    if poly is not None:
        report["ehrhart"] = _plain(poly.coefficients)
    if options.conjectures:
        report["conjectures"] = {
            "eq1": _plain(check_eq1(dp, measured)) if 2 <= n <= options.ehrhart_max_dim else None,
            "conj11": _plain(check_conj11(dp)),
            "ehrhart_bound": _plain(check_ehrhart_bound(dp, measured)),
            "bishop": _plain(check_bishop(dp, measured, index)),
        }
    if options.timing:
        report["seconds"] = time.monotonic() - t0
    return report


def scan(pf: PolytopeFile, options: ScanOptions = ScanOptions()):
    """Analyze every entry, at most one worker each; output is in input order."""
    jobs = min(options.jobs, len(pf.entries))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor    # here, so a serial run skips its import
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_analyze_star, [(e, options) for e in pf.entries]))
    return [analyze_entry(e, options) for e in pf.entries]


def _analyze_star(args):
    return analyze_entry(*args)


CSV_COLUMNS = [
    "name",
    "dim",
    "n_vertices",
    "is_smooth_fano",
    "is_reflexive",
    "is_ke",
    "is_symmetric",
    "alpha",
]


def emit(reports, format="json"):
    """Serialize reports to bytes; key order and content are deterministic."""
    if format == "json":
        return (json.dumps(reports, indent=2) + "\n").encode()
    if format == "csv":
        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for r in reports:
            writer.writerow({k: r.get(k, "") for k in CSV_COLUMNS})
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {format!r}")
