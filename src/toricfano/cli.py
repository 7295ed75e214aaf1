"""Command line interface.

Subcommands: ``check FILE [--name N]``, ``scan FILE [--jobs K]
[--conjectures] [--ehrhart-max-dim D] [--out PATH] [--format json|csv]``,
``dual FILE --name N``.  Exit code 0 means the run completed (verdicts never
affect it); 1 means an ``error:`` line; 2 means an argparse usage error.
"""

import argparse
import sys
from contextlib import nullcontext

from .io import ParseError, PolytopeFile, ScanOptions, emit, parse, scan, unparse
from .polytope import PolytopeError, dual, hull, is_smooth_fano


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1) from None


def _load(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:    # a byte-order mark is not text
            return parse(fh.read())
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        _fail(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}")


def _select(pf, name):
    """``pf``, or a file of its one entry named ``name``."""
    if name is None:
        return pf
    try:
        return PolytopeFile((pf.entry(name),))
    except KeyError:
        _fail(f"no polytope named {name!r}")


def _open(path, mode):
    try:
        return open(path, mode)
    except OSError as exc:
        _fail(f"{path}: {exc.strerror}")


def cmd_check(args):
    sys.stdout.buffer.write(emit(scan(_select(_load(args.file), args.name)), "json"))
    return 0


def cmd_scan(args):
    if args.jobs < 1:
        _fail(f"--jobs must be at least 1, not {args.jobs}")
    pf = _load(args.file)
    options = ScanOptions(
        conjectures=args.conjectures,
        ehrhart_max_dim=args.ehrhart_max_dim,
        jobs=args.jobs,
        timing=args.timing,
    )
    if args.out:    # an unwritable --out fails before the scan; appending truncates no old report
        _open(args.out, "ab").close()
    data = emit(scan(pf, options), args.format)
    with _open(args.out, "wb") if args.out else nullcontext(sys.stdout.buffer) as fh:
        fh.write(data)
    return 0


def cmd_dual(args):
    ((name, _, rows),) = _select(_load(args.file), args.name).entries
    q = None
    try:
        q = hull(rows)
        dp = dual(q)
    except PolytopeError as exc:
        certificate = is_smooth_fano(q)[1] if q is not None else None
        detail = f" ({certificate})" if certificate else ""
        _fail(f"cannot dualize {name!r}: {exc}{detail}")
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
