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

import io as _io
import time
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import factorial

from .conjectures import check_bishop, check_conj11, check_eq1, check_ehrhart_bound
from .criteria import full_verdict
from .measures import cone_measures, fano_index
from .polytope import PolytopeError, dual, hull, is_smooth_fano
from .symmetry import polytope_automorphisms, vertex_sum


class ParseError(Exception):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class PolytopeFile(namedtuple("PolytopeFile", "entries")):
    """The (name, dim, vertex rows) entries of a polytope file."""
    __slots__ = ()

    def entry(self, name):
        for e in self.entries:
            if e[0] == name:
                return e
        raise KeyError(name)


def parse(text) -> PolytopeFile:
    """Read the entries in order from the numbered lines that are neither blank nor comments."""
    lines = ((no, line) for no, line in enumerate(map(str.strip, text.splitlines()), start=1)
             if line and not line.startswith("#"))
    entries, names = [], set()
    for start, line in lines:
        tokens = line.split()
        if tokens[0] != "polytope":
            raise ParseError(start, f"expected 'polytope NAME', got {tokens[0]!r}")
        if len(tokens) != 2:
            raise ParseError(start, "expected exactly one name after 'polytope'")
        name = tokens[1]
        if name in names:
            raise ParseError(start, f"duplicate polytope name {name!r}")
        names.add(name)
        try:
            dim = _count(next(lines), "dim N", "dimension")
            nverts = _count(next(lines), "vertices M", "vertex count")
            rows = []
            while len(rows) < nverts:
                line_no, line = next(lines)
                tokens = line.split()
                if tokens[0] == "end":
                    raise ParseError(line_no, f"'end' after {len(rows)} of {nverts} vertex rows")
                try:
                    rows.append(tuple(map(int, tokens)))
                except ValueError:
                    raise ParseError(line_no, f"non-integer token in vertex row: {line!r}") from None
                if len(tokens) != dim:
                    raise ParseError(line_no, f"vertex row has {len(tokens)} coordinates, expected {dim}")
            line_no, line = next(lines)
        except StopIteration:    # the text ended inside this entry
            raise ParseError(start, f"polytope {name!r} is missing its 'end'") from None
        if line.split() != ["end"]:
            raise ParseError(line_no, "expected 'end'")
        entries.append((name, dim, tuple(rows)))
    return PolytopeFile(entries=tuple(entries))


def _count(numbered, usage, what):
    """The positive int N of a numbered line spelled as ``usage`` ("dim N" or "vertices M")."""
    line_no, line = numbered
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != usage.split()[0]:
        raise ParseError(line_no, f"expected {usage!r}")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ParseError(line_no, f"non-integer {what} {tokens[1]!r}") from None
    if n < 1:
        raise ParseError(line_no, f"{what} must be positive")
    return n


def unparse(entries):
    """(name, dim, rows) entries as polytope-file text, which ``parse`` reads back."""
    lines = []
    for name, dim, rows in entries:
        lines += [f"polytope {name}", f"dim {dim}", f"vertices {len(rows)}"]
        lines += [" ".join(map(str, row)) for row in rows]
        lines.append("end")
    return "".join(line + "\n" for line in lines)


def fmt_rat(x):
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _plain(x):
    """JSON-ready form by exact type: Fraction as ``fmt_rat``, sequences, a record's fields in field order."""
    t = type(x)
    if t is Fraction:
        return fmt_rat(x)
    if t is tuple or t is list:
        return [_plain(y) for y in x]
    if isinstance(x, tuple):    # a record: a named tuple
        return {k: _plain(y) for k, y in zip(x._fields, x)}
    return x


class ScanOptions(namedtuple("ScanOptions", "conjectures ehrhart_max_dim jobs timing", defaults=(False, 5, 1, False))):
    __slots__ = ()


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
    gq = polytope_automorphisms(dp.q)
    measured = cone_measures(dp.p, with_ehrhart=n <= options.ehrhart_max_dim)
    verdict = full_verdict(dp, groups=(gq,), measured=measured)
    report["barycenter"] = _plain(verdict.barycenter)
    report["is_ke"] = verdict.is_ke
    report["is_symmetric"] = verdict.is_symmetric
    # each pair of twin keys is one value: the dual group (the transposes) has
    # the same order, the fixed spaces share a dimension, and alpha is the lct
    report["group_order"] = report["group_order_dual"] = gq.order
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
            "conj11": _plain(check_conj11(dp, gq)),
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
    """Serialize reports to bytes; key order and content are deterministic, JSON as ``json.dumps(indent=2)``."""
    if format == "json":
        _write_json(reports, out := [], "\n")
        return ("".join(out) + "\n").encode()
    if format == "csv":
        import csv    # here, so the JSON path skips its import

        buf = _io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        for r in reports:
            writer.writerow({k: r.get(k, "") for k in CSV_COLUMNS})
        return buf.getvalue().encode()
    raise ValueError(f"unknown format {format!r}")


def _write_json(x, out, nl):
    """Append the pieces of ``x`` as ``json.dumps(x, indent=2)`` writes it, nested where ``nl`` (newline + indent) is.
    The report's types only: str-keyed dicts, lists, tuples, str (by json's C escape), int, bool, None, float."""
    t = type(x)
    if t is dict or t is list or t is tuple:
        inner, sep = nl + "  ", "{" if t is dict else "["
        for item in x.items() if t is dict else x:
            out += (sep, inner)
            if t is dict:
                out += (encode_basestring_ascii(item[0]), ": ")
                item = item[1]
            _write_json(item, out, inner)
            sep = ","
        out += (nl if x else sep, "}" if t is dict else "]")
    elif t is str:
        out.append(encode_basestring_ascii(x))
    else:    # int.__repr__ and float.__repr__ refuse any other type, as json.dumps does
        out.append("null" if x is None else "true" if x is True else "false" if x is False
                   else int.__repr__(x) if t is int else float.__repr__(x))
