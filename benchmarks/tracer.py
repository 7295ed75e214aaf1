"""Outside-in tracer: spans around the public functions of each module.

The program is not modified.  ``Tracer.install`` replaces every listed
function at every ``toricfano`` module namespace that holds it (``io`` and
``criteria`` import their own references), and ``Tracer.restore`` puts the
originals back.  Each call adds to per-function counters (calls, total and
self time, where self time is the span minus its traced children).  Calls
outside ``linalg`` also keep a span record (function, parent function,
entry, start, duration, self time) in memory; ``linalg`` kernels are called
too often to keep a record each, so they are measured in place by the
counters only.

With ``jobs > 1`` the scan runs in forked pool workers that inherit the
installed wrappers; each worker writes its counters and spans to
``flush_dir`` after every entry, and ``merged`` folds those files in.
"""

import functools
import json
import os
import statistics
import sys
import time

TARGETS = {
    "io": ("analyze_entry", "emit"),
    "polytope": ("hull", "is_smooth_fano", "dual", "faces_codim2", "restrict_to_subspace"),
    "symmetry": ("polytope_automorphisms", "transport_group", "fixed_space"),
    "criteria": ("full_verdict", "alpha_invariant", "lct", "tian_condition"),
    "measures": (
        "volume_and_barycenter",
        "ehrhart",
        "count_lattice_points",
        "relative_volume",
        "codim2_volume",
        "coefficient_of_asymmetry",
        "fano_index",
    ),
    "conjectures": ("check_eq1", "check_conj11", "check_ehrhart_bound", "check_bishop"),
    "lp": ("feasible_point",),
    "linalg": (
        "det",
        "rref",
        "kernel_basis",
        "solve_exact",
        "matrix_inverse_unimodular",
        "saturated_kernel",
    ),
}
COUNTED_ONLY = ("linalg",)
PACKAGE = "toricfano"

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)
ANALYZE_ENTRY = NAMES.index("io.analyze_entry")
HULL = NAMES.index("polytope.hull")
RELATIVE_VOLUME = NAMES.index("measures.relative_volume")
FEASIBLE_POINT = NAMES.index("lp.feasible_point")
CACHED = "measures.volume_and_barycenter"


def per_layer_names():
    """Every per-layer metric a traced run reports, with unit and direction."""
    out = []
    for name in NAMES:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [
        ("io.analyze_entry.p50_s", "s", "lower"),
        ("io.analyze_entry.max_s", "s", "lower"),
        ("polytope.hull.entry_total_s", "s", "lower"),
        ("polytope.hull.ridge_total_s", "s", "lower"),
        (f"{CACHED}.hit_ratio", "ratio", "higher"),
        ("lp.feasible_point.infeasible", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return out


class Tracer:
    def __init__(self, flush_dir=None):
        self.flush_dir = flush_dir
        self.calls = [0] * len(NAMES)
        self.total_ns = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.spans = []            # (fid, parent fid or -1, entry, start_ns, dur_ns, self_ns)
        self.infeasible = 0
        self.entry = None
        self._stack = []           # [fid, child_ns] per open traced call
        self._patched = []         # (module, attribute, original)
        self._pid = None

    # -- installation -------------------------------------------------
    def install(self):
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in TARGETS}
        originals = {}
        for fid, name in enumerate(NAMES):
            mod, fn = name.split(".")
            originals[id(getattr(modules[mod], fn))] = self._wrap(fid, getattr(modules[mod], fn))
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if self.flush_dir is not None:
            io_mod = modules["io"]
            self._patched.append((io_mod, "_analyze_star", io_mod._analyze_star))
            io_mod._analyze_star = self._flushing(io_mod._analyze_star)
        self._pid = os.getpid()
        return self

    def restore(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, fid, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        keep_span = NAMES[fid].split(".")[0] not in COUNTED_ONLY

        def traced(*args, **kwargs):
            if fid == ANALYZE_ENTRY:
                self.entry = args[0][0]
            frame = [fid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self_dur = dur - frame[1]
                self.calls[fid] += 1
                self.total_ns[fid] += dur
                self.self_ns[fid] += self_dur
                if keep_span:
                    parent = stack[-1][0] if stack else -1
                    self.spans.append((fid, parent, self.entry, t0, dur, self_dur))
            if fid == FEASIBLE_POINT and result.status == "infeasible":
                self.infeasible += 1
            return result

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _flushing(self, fn):
        @functools.wraps(fn)
        def flushing(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() != self._pid:
                path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(self.state(), fh)
            return result

        return flushing

    # -- results --------------------------------------------------------
    def state(self):
        info = sys.modules[f"{PACKAGE}.measures"].volume_and_barycenter.cache_info()
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "spans": self.spans,
            "infeasible": self.infeasible,
            "cache": [info.hits, info.misses],
        }

    def merged(self):
        """This process's state plus every worker file in ``flush_dir``."""
        out = self.state()
        out = {k: (list(v) if isinstance(v, list) else v) for k, v in out.items()}
        if self.flush_dir is None:
            return out
        for fname in sorted(os.listdir(self.flush_dir)):
            if not fname.startswith("worker-"):
                continue
            with open(os.path.join(self.flush_dir, fname)) as fh:
                w = json.load(fh)
            for key in ("calls", "total_ns", "self_ns", "cache"):
                out[key] = [a + b for a, b in zip(out[key], w[key])]
            out["spans"] += [tuple(s) for s in w["spans"]]
            out["infeasible"] += w["infeasible"]
        return out


def layer_metrics(state):
    """Per-layer metric values (without trace.overhead_ratio) from a state."""
    m = {}
    for fid, name in enumerate(NAMES):
        m[f"{name}.calls"] = state["calls"][fid]
        m[f"{name}.total_s"] = state["total_ns"][fid] / 1e9
        m[f"{name}.self_s"] = state["self_ns"][fid] / 1e9
    entry_s = [s[4] / 1e9 for s in state["spans"] if s[0] == ANALYZE_ENTRY]
    m["io.analyze_entry.p50_s"] = statistics.median(entry_s) if entry_s else 0.0
    m["io.analyze_entry.max_s"] = max(entry_s, default=0.0)
    hulls = [s for s in state["spans"] if s[0] == HULL]
    m["polytope.hull.entry_total_s"] = sum(s[4] for s in hulls if s[1] == ANALYZE_ENTRY) / 1e9
    m["polytope.hull.ridge_total_s"] = sum(s[4] for s in hulls if s[1] == RELATIVE_VOLUME) / 1e9
    hits, misses = state["cache"]
    m[f"{CACHED}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["lp.feasible_point.infeasible"] = state["infeasible"]
    return m
