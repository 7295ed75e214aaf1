"""Scan benchmark: time ``parse -> scan -> emit`` on a seeded workload.

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each timed step runs in a fresh
interpreter (see worker.py).  A run:

1. times a host-speed reference loop (stdlib ``Fraction`` arithmetic);
2. times SETUPS fresh interpreters that import toricfano and parse the
   workload (``setup_s`` is their median);
3. scans the workload in fresh interpreters, once and then again until
   the passes fill about ``--seconds``, checking every report with the
   oracle (``scan_s``, ``scan_cpu_s`` and ``peak_rss_mib`` are medians
   over these passes);
4. with ``--trace 1``, scans once more under the tracer and reports the
   per-layer metrics instead of the end-to-end ones;
5. times the reference loop again.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run record (host speed,
Python version, nproc, commit, every pass) goes to
``.bench_out/<workload>-<seed>-<pid>/run.json`` and a summary to stderr.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUPS = 7
STEP_TIMEOUT_S = 120


def host_reference_s():
    """Wall time of a fixed stdlib Fraction loop, to tell host from program."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 60000):
        acc += Fraction(i % 97, i % 89 + 1)
    return time.perf_counter() - t0


def commit():
    """The checkout's commit from .git, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _children_usage():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def step(args, env):
    """Run one worker step; (wall seconds, parsed JSON line or None).

    The worker gets its own process group, so a step that overruns
    STEP_TIMEOUT_S is killed together with any pool workers it forked.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nstep killed after {STEP_TIMEOUT_S} s\n"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
        return wall, None
    lines = out.strip().splitlines()
    return wall, (json.loads(lines[-1]) if lines else {})


def scan_pass(input_file, report, jobs, env, trace_dir=None):
    """One scan in a fresh interpreter: (metrics dict, emitted bytes or None)."""
    args = ["scan", str(input_file), "--jobs", str(jobs), "--out", str(report)]
    if trace_dir is not None:
        args += ["--trace", str(trace_dir)]
    report.unlink(missing_ok=True)
    cpu0, _ = _children_usage()
    wall, out = step(args, env)
    if out is None:
        # the scan raised: time it from outside so the run still reports
        cpu1, rss = _children_usage()
        return {"scan_s": wall, "scan_cpu_s": cpu1 - cpu0, "peak_rss_mib": rss}, None
    return out, report.read_bytes()


def main(argv=None):
    ap = argparse.ArgumentParser(description="toricfano scan benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "toricfano" / "__init__.py").is_file():
        print(f"error: no toricfano sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import oracle
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    entries = workloads.generate(workload.name, args.seed)
    golden = oracle.load_golden(workload.reference)
    nproc = len(os.sched_getaffinity(0))
    jobs = min(workload.jobs, nproc)

    out_dir = ROOT / ".bench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    input_file = out_dir / "input.txt"
    input_file.write_text(workloads.render(entries, f"{workload.name}, seed {args.seed}"))
    report = out_dir / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    host_before = host_reference_s()
    step(["setup", str(input_file)], env)          # untimed: writes bytecode caches
    setups = [step(["setup", str(input_file)], env)[0] for _ in range(SETUPS)]

    def checked_pass(trace_dir=None):
        res, data = scan_pass(input_file, report, jobs, env, trace_dir)
        if data is None:        # the scan raised: every entry failed
            res["failed"] = [e[0] for e in entries]
        else:
            res["failed"] = oracle.failed_entries(data, entries, args.seed, golden)
        return res

    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(checked_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) / 2 >= args.seconds:
            break               # another pass would end past --seconds by over half a pass

    def median(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "scan_s": (median("scan_s"), "s"),
        "scan_cpu_s": (median("scan_cpu_s"), "s"),
        "peak_rss_mib": (median("peak_rss_mib"), "MiB"),
    }
    traced = None
    if args.trace:
        trace_dir = out_dir / "trace"
        trace_dir.mkdir(exist_ok=True)
        traced = checked_pass(trace_dir)
        layers = dict(traced.get("layers", {}))
        layers["trace.overhead_ratio"] = traced["scan_s"] / metrics["scan_s"][0]
        units = {name: unit for name, unit, _ in tracer.per_layer_names()}
        metrics = {name: (layers.get(name, 0.0), unit) for name, unit in units.items()}
    host_after = host_reference_s()
    done = passes + ([traced] if traced else [])
    attempted = len(entries) * len(done)
    failed = sum(len(p["failed"]) for p in done)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "nproc": nproc,
        "python": platform.python_version(),
        "commit": commit(),
        "host_reference_s": [host_before, host_after],
        "setup_s": setups,
        "passes": passes,
        "traced_pass": traced,
    }
    (out_dir / "run.json").write_text(json.dumps(record, indent=1))
    print(
        f"{workload.name} seed {args.seed}: {len(passes)} passes, "
        f"scan_s {[round(p['scan_s'], 3) for p in passes]}, "
        f"host reference {host_before:.3f}/{host_after:.3f} s, "
        f"python {record['python']}, nproc {nproc}, commit {record['commit'][:12]}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
