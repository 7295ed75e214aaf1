"""One timed step of a benchmark run, in a fresh interpreter.

    python3 benchmarks/worker.py setup FILE
        import toricfano and parse FILE; the caller times the whole process.
    python3 benchmarks/worker.py scan FILE --jobs J --out REPORT [--trace DIR]
        scan and emit FILE as ``toricfano scan FILE --conjectures`` does,
        write the emitted bytes to REPORT, and print one JSON line with the
        wall time of scan plus emit, the CPU time of this process and its
        pool workers, and the peak resident set.  With ``--trace`` the
        functions are wrapped by the tracer first and the line also holds
        the per-layer metrics; spans are written to DIR/spans.json.

A fresh interpreter per step matters: ``volume_and_barycenter``,
``pulling_triangulation`` and ``face_children`` are ``lru_cache``d, so a
second scan in one process would reuse them, which a CLI user never does.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024          # ru_maxrss is in KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("setup", "scan"))
    ap.add_argument("file")
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--trace")
    args = ap.parse_args(argv)

    from toricfano import io

    pf = io.parse(Path(args.file).read_text())
    if args.step == "setup":
        return 0

    import workloads

    options = io.ScanOptions(
        conjectures=workloads.CONJECTURES,
        ehrhart_max_dim=workloads.EHRHART_MAX_DIM,
        jobs=args.jobs,
    )
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(flush_dir=args.trace if args.jobs > 1 else None).install()
    try:
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        data = io.emit(io.scan(pf, options))
        scan_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    Path(args.out).write_bytes(data)
    out = {"scan_s": scan_s, "scan_cpu_s": cpu_s, "peak_rss_mib": _peak_rss_mib()}
    if tracer is not None:
        state = tracer.merged()
        with open(os.path.join(args.trace, "spans.json"), "w") as fh:
            json.dump({"names": tracing.NAMES, "spans": state["spans"]}, fh)
        out["layers"] = tracing.layer_metrics(state)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
