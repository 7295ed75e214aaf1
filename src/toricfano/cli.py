"""Command line interface.

Subcommands: ``check FILE [--name N]``, ``scan FILE [--jobs K]
[--conjectures] [--ehrhart-max-dim D] [--out PATH] [--format json|csv]``,
``dual FILE --name N``.  Exit code 0 means the run completed (verdicts never
affect it); 1 means an ``error:`` line; 2 means an argparse usage error.
"""

import argparse
import sys
from contextlib import nullcontext

from .io import ParseError, ScanOptions, analyze_entry, emit, parse, scan, unparse
from .polytope import PolytopeError, dual, hull, is_smooth_fano


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {path}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(1) from None
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None
    try:
        return parse(text)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from None


def _select(pf, name):
    if name is None:
        return pf.entries
    try:
        return (pf.entry(name),)
    except KeyError:
        print(f"error: no polytope named {name!r}", file=sys.stderr)
        raise SystemExit(1) from None


def cmd_check(args):
    pf = _load(args.file)
    entries = _select(pf, args.name)
    reports = [analyze_entry(e) for e in entries]
    sys.stdout.buffer.write(emit(reports, "json"))
    return 0


def cmd_scan(args):
    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, not {args.jobs}", file=sys.stderr)
        raise SystemExit(1)
    pf = _load(args.file)
    options = ScanOptions(
        conjectures=args.conjectures,
        ehrhart_max_dim=args.ehrhart_max_dim,
        jobs=args.jobs,
        timing=args.timing,
    )
    # an unwritable --out fails before the scan, not after it
    try:
        out = open(args.out, "wb") if args.out else nullcontext(sys.stdout.buffer)
    except OSError as exc:
        print(f"error: {args.out}: {exc.strerror}", file=sys.stderr)
        raise SystemExit(1) from None
    with out as fh:
        fh.write(emit(scan(pf, options), args.format))
    return 0


def cmd_dual(args):
    pf = _load(args.file)
    (entry,) = _select(pf, args.name)
    name, dim, rows = entry
    q = None
    try:
        q = hull(rows)
        dp = dual(q)
    except PolytopeError as exc:
        certificate = is_smooth_fano(q)[1] if q is not None else None
        detail = f" ({certificate})" if certificate else ""
        print(f"error: cannot dualize {name!r}: {exc}{detail}", file=sys.stderr)
        raise SystemExit(1) from None
    sys.stdout.write(unparse([(f"{name}_dual", dp.p.dim, dp.p.vertices)]))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="toricfano",
        description="Exact Kaehler-Einstein criteria for smooth toric Fano polytopes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="analyze one or all polytopes in a file")
    p_check.add_argument("file")
    p_check.add_argument("--name")
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="batch-analyze a polytope file")
    p_scan.add_argument("file")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--conjectures", action="store_true")
    p_scan.add_argument("--ehrhart-max-dim", type=int, default=5)
    p_scan.add_argument("--out")
    p_scan.add_argument("--format", choices=["json", "csv"], default="json")
    p_scan.add_argument(
        "--timing",
        action="store_true",
        help="include per-entry wall time (breaks run-to-run byte identity)",
    )
    p_scan.set_defaults(func=cmd_scan)

    p_dual = sub.add_parser("dual", help="print the dual polytope of one entry")
    p_dual.add_argument("file")
    p_dual.add_argument("--name", required=True)
    p_dual.set_defaults(func=cmd_dual)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
