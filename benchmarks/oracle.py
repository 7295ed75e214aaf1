"""Correctness oracle for benchmark reports, against stored seed-0 goldens.

``reference/<name>.json`` holds the exact bytes ``emit(scan(...))`` wrote
for a workload at seed 0, and ``reference/SHA256SUMS`` their digests.
``reference/corpus.txt`` is the corpus workload's input at seed 0.

- At seed 0 a report must equal the golden byte for byte.
- At any seed, each entry's transform-invariant fields must equal the
  golden entry's: verdicts, group orders, fixed dims, alpha, lct, volume,
  degree, Fano index, Ehrhart coefficients, eq1, the bounds, and the
  multiset of conj11 feasibilities.  Barycenter, vertex sum, fixed
  generator and conj11 facet normals are mapped back through the entry's
  signed permutation first.  A fixed generator spans a line, so it is
  compared up to sign.

Signed permutation matrices U are orthogonal, so U^-T = U: dual-side
vectors map back exactly like Fano-side ones.

    python3 benchmarks/oracle.py --write    # regenerate goldens (slow)
"""

import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SUMS = REFERENCE / "SHA256SUMS"

MAPPED = ("barycenter", "vertex_sum", "fixed_generator", "conjectures", "certificate")
PROJECTIVE = {"corpus": ("p1", "p2", "p3", "p4"), "small-fano": ("p2", "p3", "p4")}
KE_NONSYMMETRIC = {"corpus": ("q1", "q2"), "small-fano": ()}


class ReferenceError(Exception):
    """A stored golden is missing, altered, or contradicts an acceptance fact."""


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _sums():
    out = {}
    for line in SUMS.read_text().splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


def load_golden(name):
    """(golden bytes, parsed reports) for a reference, after checking both."""
    path = REFERENCE / f"{name}.json"
    try:
        data = path.read_bytes()
        expected = _sums()[path.name]
    except (OSError, KeyError) as exc:
        raise ReferenceError(f"missing golden for {name!r}: {exc}") from None
    if _digest(data) != expected:
        raise ReferenceError(f"{path.name} does not match SHA256SUMS")
    reports = json.loads(data)
    problems = acceptance_problems(name, reports)
    if problems:
        raise ReferenceError(f"{path.name}: " + "; ".join(problems))
    return data, reports


def acceptance_problems(name, reports):
    """Acceptance facts the golden must show: KE non-symmetric q's, cx5, Bishop."""
    by_name = {r["name"]: r for r in reports}
    problems = []
    for q in KE_NONSYMMETRIC[name]:
        if not (by_name[q]["is_ke"] and not by_name[q]["is_symmetric"]):
            problems.append(f"{q} is not KE and non-symmetric")
    infeasible = sum(not f["feasible"] for f in by_name["cx5"]["conjectures"]["conj11"])
    if infeasible != 2:
        problems.append(f"cx5 has {infeasible} infeasible facets, expected 2")
    for r in reports:
        if not r["is_smooth_fano"]:
            continue
        sharp = r["conjectures"]["bishop"]["sharp"]
        if sharp != (r["name"] in PROJECTIVE[name]):
            problems.append(f"Bishop sharpness is {sharp} on {r['name']}")
    return problems


def _rats(v):
    return tuple(Fraction(x) for x in v)


def _line(v):
    """A primitive vector up to sign: first nonzero coordinate positive."""
    lead = next((x for x in v if x), 0)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def invariant_view(report, transform=None):
    """The fields a seed may not change, with vectors in seed-0 coordinates."""
    back = transform.invert if transform is not None else tuple
    view = {k: v for k, v in report.items() if k not in MAPPED}
    view["keys"] = sorted(report)
    if "certificate" in report:
        # the certificate quotes one facet normal and a determinant sign
        view["certificate"] = re.sub(r"\([^)]*\)|-", "", report["certificate"])
    if "barycenter" in report:
        view["barycenter"] = back(_rats(report["barycenter"]))
        view["vertex_sum"] = back(report["vertex_sum"])
        fg = report["fixed_generator"]
        view["fixed_generator"] = None if fg is None else _line(back(fg))
    conj = report.get("conjectures")
    if conj is not None:
        view["conjectures"] = {k: v for k, v in conj.items() if k != "conj11"}
        view["conj11"] = sorted(
            (back(f["facet_normal"]), f["feasible"]) for f in conj["conj11"]
        )
    return view


def failed_entries(data, entries, seed, golden):
    """Names of entries whose report is wrong; every entry if none parse.

    ``entries`` are the generated (name, rows, transform) triples in scan
    order; ``golden`` is ``load_golden``'s result for the workload.
    """
    golden_bytes, golden_reports = golden
    names = [e[0] for e in entries]
    try:
        reports = json.loads(data)
    except ValueError:
        return names
    if not isinstance(reports, list) or len(reports) != len(entries):
        return names
    if seed == 0 and data != golden_bytes:
        return names
    expected = {r["name"]: r for r in golden_reports}
    failed = []
    for (name, _, transform), report in zip(entries, reports):
        ok = (
            isinstance(report, dict)
            and report.get("name") == name
            and name in expected
            and invariant_view(report, transform) == invariant_view(expected[name])
        )
        if not ok:
            failed.append(name)
    return failed


def write_goldens():
    """Scan each reference workload at seed 0 and store bytes and digests."""
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from toricfano import io

    options = io.ScanOptions(
        conjectures=workloads.CONJECTURES, ehrhart_max_dim=workloads.EHRHART_MAX_DIM
    )
    REFERENCE.mkdir(exist_ok=True)
    entries = [(n, r, None) for n, r in workloads.fixture_corpus_entries()]
    workloads.CORPUS_FILE.write_text(workloads.render(entries, "fixture corpus without q3"))
    sums = []
    for name in sorted({w.reference for w in workloads.WORKLOADS.values()}):
        data = io.emit(io.scan(io.parse(workloads.workload_text(name, 0)), options))
        (REFERENCE / f"{name}.json").write_bytes(data)
        sums.append(f"{_digest(data)}  {name}.json\n")
        print(f"wrote reference/{name}.json", file=sys.stderr)
    SUMS.write_text("".join(sums))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 benchmarks/oracle.py --write")
    write_goldens()
