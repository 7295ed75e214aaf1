"""Seeded workload inputs for the scan benchmark.

A workload is a list of polytope entries plus the scan options.  For each
entry the seed picks a vertex-row shuffle and a signed coordinate
permutation; seed 0 is the identity.  Signed permutations are orthogonal,
so they keep every coordinate range (the bounding-box interior check cannot
grow) and every transform-invariant report field.

Print any workload and seed in the polytope-file grammar, so a run can be
replayed with the CLI::

    python3 benchmarks/workloads.py small-fano --seed 3 > sf3.txt
    PYTHONPATH=src python3 -m toricfano.cli scan sf3.txt --conjectures
"""

import argparse
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS_FILE = Path(__file__).resolve().parent / "reference" / "corpus.txt"

CONJECTURES = True
EHRHART_MAX_DIM = 5

# Smooth Fano summands for the small-fano family, as vertex rows.
SEGMENT = ((1,), (-1,))
P2 = ((1, 0), (0, 1), (-1, -1))
BL1_P2 = ((1, 0), (0, 1), (1, 1), (-1, -1))
BL2_P2 = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1))
HEXAGON = ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))
P3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
P4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1))
SUMMANDS = (
    ("seg", SEGMENT),
    ("p2", P2),
    ("bl1", BL1_P2),
    ("bl2", BL2_P2),
    ("hex", HEXAGON),
    ("p3", P3),
    ("p4", P4),
)
CX5 = (
    (-1, 0, 0, 0, 0),
    (0, -1, 0, 0, 0),
    (0, 0, -1, 0, 0),
    (0, 0, 0, -1, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, -1),
    (1, 0, 1, 2, 0),
    (0, 1, 0, -2, 1),
)

# q3 alone takes about 27 s to analyze, more than one benchmark run may
# spend on a whole pass; q1 and q2 keep the dim 7-8 hull and symmetry load.
CORPUS_LEFT_OUT = ("q3",)
# At most two summands keeps a pass near 13 s while every dim 2-5 summand
# and both blow-ups (the non-KE slice and asymmetry path) stay in.
SMALL_FANO_MAX_SUMMANDS = 2
SMALL_FANO_DIMS = range(2, 6)


@dataclass(frozen=True)
class Workload:
    name: str
    reference: str         # name of the stored reference file
    jobs: int


# small-fano-jobs2 is not listed in BENCHMARK.json: with both cores busy
# its run-to-run spread on a shared host exceeded the largest bound allowed.
WORKLOADS = {
    "corpus": Workload("corpus", "corpus", 1),
    "small-fano": Workload("small-fano", "small-fano", 1),
    "small-fano-jobs2": Workload("small-fano-jobs2", "small-fano", 2),
}


@dataclass(frozen=True)
class Transform:
    """x'[j] = signs[j] * x[perm[j]], with vertex rows listed in ``order``."""

    perm: tuple
    signs: tuple
    order: tuple

    def apply(self, v):
        return tuple(s * v[p] for p, s in zip(self.perm, self.signs))

    def invert(self, v):
        out = [None] * len(v)
        for j, (p, s) in enumerate(zip(self.perm, self.signs)):
            out[p] = s * v[j]
        return tuple(out)


def free_sum_rows(parts):
    """Vertex rows of the free sum of ``parts``, by block concatenation."""
    n = sum(len(rows[0]) for rows in parts)
    out = []
    offset = 0
    for rows in parts:
        d = len(rows[0])
        out += [(0,) * offset + tuple(v) + (0,) * (n - offset - d) for v in rows]
        offset += d
    return tuple(out)


def small_fano_entries():
    """Free sums of at most two summands with total dimension 2-5, plus cx5."""
    entries = []
    for k in range(1, SMALL_FANO_MAX_SUMMANDS + 1):
        for combo in itertools.combinations_with_replacement(SUMMANDS, k):
            rows = free_sum_rows([r for _, r in combo])
            if len(rows[0]) in SMALL_FANO_DIMS:
                entries.append(("+".join(name for name, _ in combo), rows))
    entries.append(("cx5", CX5))
    return entries


def fixture_corpus_entries():
    """The fixture corpus in scan order, without the entries left out above.

    Building it runs ``hull`` (q2 is a free sum), which takes seconds, so
    runs read the stored copy ``CORPUS_FILE`` instead; a test keeps the two
    equal.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from toricfano import fixtures

    return [(n, tuple(r)) for n, r in fixtures.corpus_entries() if n not in CORPUS_LEFT_OUT]


def read_entries(text):
    """[(name, rows)] from text in the polytope-file grammar."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    entries = []
    i = 0
    while i < len(lines):
        n_rows = int(lines[i + 2][1])
        rows = tuple(tuple(int(x) for x in ln) for ln in lines[i + 3:i + 3 + n_rows])
        entries.append((lines[i][1], rows))
        i += n_rows + 4
    return entries


def corpus_entries():
    return read_entries(CORPUS_FILE.read_text())


def base_entries(workload):
    if workload.reference == "corpus":
        return corpus_entries()
    return small_fano_entries()


def make_transform(rng, dim, n_rows):
    perm = list(range(dim))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(dim))
    order = list(range(n_rows))
    rng.shuffle(order)
    return Transform(tuple(perm), signs, tuple(order))


def generate(name, seed):
    """[(entry name, transformed rows, Transform)] for a workload and seed."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    out = []
    for entry_name, rows in base_entries(workload):
        dim = len(rows[0])
        if seed == 0:
            t = Transform(tuple(range(dim)), (1,) * dim, tuple(range(len(rows))))
        else:
            t = make_transform(rng, dim, len(rows))
        out.append((entry_name, tuple(t.apply(rows[i]) for i in t.order), t))
    return out


def render(entries, title):
    """Entries in the polytope-file grammar read by ``toricfano.io.parse``."""
    lines = [f"# {title}"]
    for name, rows, _ in entries:
        lines += [f"polytope {name}", f"dim {len(rows[0])}", f"vertices {len(rows)}"]
        lines += [" ".join(str(x) for x in row) for row in rows]
        lines.append("end")
    return "\n".join(lines) + "\n"


def workload_text(name, seed):
    return render(generate(name, seed), f"benchmark workload {name}, seed {seed}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sys.stdout.write(workload_text(args.workload, args.seed))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
