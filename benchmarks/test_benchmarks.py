"""Tests of the benchmark itself (stdlib unittest).

    python3 -m unittest discover -s benchmarks -t benchmarks -v

``test_goldens_match_cli`` scans both reference workloads through the CLI
and takes about 40 s; the rest take a few seconds.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from toricfano import io, measures, polytope  # noqa: E402

LIGHT = ("p2", "bl1", "hex", "p3", "seg+bl2")
OPTIONS = io.ScanOptions(conjectures=True, ehrhart_max_dim=workloads.EHRHART_MAX_DIM)


def light_entries(seed):
    return [e for e in workloads.generate("small-fano", seed) if e[0] in LIGHT]


def scan_bytes(entries):
    text = workloads.render(entries, "light subset")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # conj11 on non-KE entries
        return io.emit(io.scan(io.parse(text), OPTIONS))


def namespaces():
    """Identity of every attribute of every loaded toricfano module."""
    return {
        (name, attr): id(value)
        for name, mod in sorted(sys.modules.items())
        if name == "toricfano" or name.startswith("toricfano.")
        for attr, value in vars(mod).items()
    }


class TracerTest(unittest.TestCase):
    def test_restores_every_original(self):
        before = namespaces()
        original = polytope.hull
        t = tracer.Tracer().install()
        try:
            self.assertIsNot(io.hull, original)
            self.assertIs(io.hull, polytope.hull)
            self.assertIs(io.hull.__wrapped__, original)
        finally:
            t.restore()
        self.assertEqual(namespaces(), before)

    def test_wraps_every_target_everywhere_it_is_imported(self):
        originals = {
            id(getattr(sys.modules[f"toricfano.{mod}"], fn)): fn
            for mod, fns in tracer.TARGETS.items()
            for fn in fns
        }
        holders = [
            (name, attr, value)
            for name, mod in sorted(sys.modules.items())
            if name == "toricfano" or name.startswith("toricfano.")
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]
        names = {(name, attr) for name, attr, _ in holders}
        imported = {("toricfano.io", "hull"), ("toricfano.criteria", "fixed_space"),
                    ("toricfano.polytope", "kernel_basis"), ("toricfano", "ehrhart")}
        self.assertLessEqual(imported, names)
        with tracer.Tracer():
            for name, attr, value in holders:
                self.assertIs(getattr(sys.modules[name], attr).__wrapped__, value, f"{name}.{attr}")

    def test_lru_cache_works_under_the_wrapper(self):
        p = polytope.hull(workloads.HEXAGON)
        with tracer.Tracer() as t:
            before = measures.volume_and_barycenter.cache_info().hits
            first = measures.volume_and_barycenter(p)
            second = measures.volume_and_barycenter(p)
            after = measures.volume_and_barycenter.cache_info().hits
        self.assertEqual(first, second)
        self.assertGreaterEqual(after - before, 1)
        self.assertEqual(t.calls[tracer.NAMES.index(tracer.CACHED)], 2)

    def test_traced_scan_emits_the_same_bytes(self):
        entries = light_entries(4)
        plain = scan_bytes(entries)
        with tracer.Tracer() as t:
            traced = scan_bytes(entries)
        self.assertEqual(traced, plain)
        m = tracer.layer_metrics(t.state())
        self.assertEqual(m["io.analyze_entry.calls"], len(entries))
        self.assertEqual(m["io.emit.calls"], 1)
        for name in tracer.NAMES:
            self.assertLessEqual(m[f"{name}.self_s"], m[f"{name}.total_s"] + 1e-9)
        self.assertLessEqual(m["polytope.hull.entry_total_s"], m["polytope.hull.total_s"])

    def test_pool_workers_report_their_spans(self):
        entries = light_entries(2)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.txt").write_text(workloads.render(entries, "light subset"))
            (tmp / "trace").mkdir()
            cmd = [sys.executable, str(HERE / "worker.py"), "scan", str(tmp / "in.txt"),
                   "--jobs", "2", "--out", str(tmp / "report.json"), "--trace", str(tmp / "trace")]
            out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True,
                                 timeout=300).stdout
            self.assertEqual((tmp / "report.json").read_bytes(), scan_bytes(entries))
        layers = json.loads(out.strip().splitlines()[-1])["layers"]
        self.assertEqual(layers["io.analyze_entry.calls"], len(entries))
        self.assertEqual(layers["io.emit.calls"], 1)

    def test_every_per_layer_metric_is_reported(self):
        with tracer.Tracer() as t:
            scan_bytes(light_entries(0))
        m = tracer.layer_metrics(t.state())
        reported = set(m) | {"trace.overhead_ratio"}
        self.assertEqual(reported, {n for n, _, _ in tracer.per_layer_names()})
        with open(HERE.parent / "BENCHMARK.json") as fh:
            listed = {p["name"] for p in json.load(fh)["per_layer"]}
        self.assertEqual(listed, reported)


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.workload_text(name, 7), workloads.workload_text(name, 7))
        self.assertNotEqual(
            workloads.workload_text("small-fano", 1), workloads.workload_text("small-fano", 2)
        )

    def test_seed_zero_is_the_identity(self):
        base = workloads.small_fano_entries()
        got = workloads.generate("small-fano", 0)
        self.assertEqual([(n, r) for n, r, _ in got], base)

    def test_transform_inverts_and_keeps_ranges(self):
        for name, rows, t in workloads.generate("corpus", 3):
            base = dict(workloads.corpus_entries())[name]
            self.assertEqual(sorted(t.invert(r) for r in rows), sorted(base))
            for j in range(len(rows[0])):
                lo_hi = {abs(v[j]) for v in rows}
                self.assertEqual(lo_hi, {abs(v[t.perm[j]]) for v in base})

    def test_stored_corpus_is_the_fixture_corpus(self):
        self.assertEqual(workloads.corpus_entries(), workloads.fixture_corpus_entries())

    def test_small_fano_family(self):
        entries = workloads.small_fano_entries()
        self.assertEqual(len(entries), 28)
        self.assertEqual(entries[-1][0], "cx5")
        self.assertEqual(
            dict(entries)["seg+p2"], ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1))
        )


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.golden = oracle.load_golden("small-fano")

    def test_accepts_a_transformed_scan(self):
        entries = light_entries(3)
        self.assertEqual(oracle.failed_entries(scan_bytes(entries), entries, 3, self.golden), [])

    def test_flags_one_corrupted_field(self):
        entries = light_entries(3)
        reports = json.loads(scan_bytes(entries))
        corruptions = {
            "p2": lambda r: r.update(alpha="1/3"),
            "bl1": lambda r: r["barycenter"].__setitem__(0, "7/9"),
            "hex": lambda r: r["conjectures"]["conj11"][0].update(feasible=False),
            "p3": lambda r: r["ehrhart"].__setitem__(1, "999/7"),
            "seg+bl2": lambda r: r.update(extra=1),
        }
        for i, (name, _, _) in enumerate(entries):
            bad = json.loads(json.dumps(reports))
            corruptions[name](bad[i])
            data = json.dumps(bad).encode()
            self.assertEqual(oracle.failed_entries(data, entries, 3, self.golden), [name])

    def test_seed_zero_needs_the_golden_bytes(self):
        entries = workloads.generate("small-fano", 0)
        data, _ = self.golden
        self.assertEqual(oracle.failed_entries(data, entries, 0, self.golden), [])
        changed = data.replace(b'"dim": 2', b'"dim":  2', 1)
        self.assertEqual(len(oracle.failed_entries(changed, entries, 0, self.golden)), len(entries))
        self.assertEqual(len(oracle.failed_entries(b"[", entries, 0, self.golden)), len(entries))

    def test_acceptance_facts_are_checked(self):
        _, reports = oracle.load_golden("corpus")
        self.assertEqual(oracle.acceptance_problems("corpus", reports), [])
        bad = json.loads(json.dumps(reports))
        for r in bad:
            if r["name"] == "q1":
                r["is_symmetric"] = True
            if r["name"] == "p3":
                r["conjectures"]["bishop"]["sharp"] = False
        self.assertEqual(len(oracle.acceptance_problems("corpus", bad)), 2)

    def test_goldens_match_cli(self):
        sums = {n: d for d, n in (ln.split() for ln in oracle.SUMS.read_text().splitlines())}
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("corpus", "small-fano"):
                path = Path(tmp) / f"{name}.txt"
                path.write_text(workloads.workload_text(name, 0))
                out = subprocess.run(
                    [sys.executable, "-m", "toricfano.cli", "scan", str(path), "--conjectures"],
                    env=env, capture_output=True, check=True, timeout=300,
                ).stdout
                self.assertEqual(hashlib.sha256(out).hexdigest(), sums[f"{name}.json"])


if __name__ == "__main__":
    unittest.main()
