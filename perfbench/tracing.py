"""Outside-in layer tracing: spans recorded by wrappers around the hf2
functions each layer consists of.

Wrappers are looked up by module attribute name when they are installed.  A
name that no longer exists is skipped, so its span is absent and the run goes
on.  Spans are recorded only inside a root span opened by the benchmark around
one call into a workload's entry point, so the benchmark's own correctness
checks do not count towards any layer.

A span is [name, start, end, parent index].  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

ROOT = "root"

# (span name, module, attribute path, hook).  Several attributes may share
# one span name; the layer is the sum of them.
SPECS = [
    ("oracle.model", "hf2.oracle", "sphere_complex", "model"),
    ("oracle.model", "hf2.oracle", "smash", "model"),
    ("oracle.model", "hf2.oracle", "dualize", "model"),
    ("oracle.levels", "hf2.oracle", "level_diff", "levels"),
    ("oracle.budget", "hf2.oracle", "predict_cols", "budget"),
    ("oracle.pi", "hf2.oracle", "oracle_pi", None),
    ("oracle.top_dim", "hf2.oracle", "oracle_top_dim", None),
    ("gf2.reduce", "hf2.gf2", "CohomologyReducer.__init__", "reduce"),
    ("gf2.express", "hf2.gf2", "CohomologyReducer.express", None),
    ("engine.basis", "hf2.engine", "basis", "basis"),
    ("engine.pos", "hf2.engine", "positive_cone_basis", None),
    ("engine.p4", "hf2.engine", "part4", None),
    ("engine.p23", "hf2.engine", "_b1_fam1", None),
    ("engine.p23", "hf2.engine", "_b1_fam2", None),
    ("engine.p23", "hf2.engine", "_b2", None),
    ("engine.p23", "hf2.engine", "_b3", None),
    ("engine.p23", "hf2.engine", "_d_lambda1", None),
    ("reps", "hf2.engine", "strip_lambda0", None),
    ("reps", "hf2.oracle", "make_degree", None),
    ("reps", "hf2.reps", "restrict", None),
    ("reps", "hf2.reps", "parse_degree", None),
    ("reps", "hf2.reps", "format_degree", None),
    ("cli.cache.load", "hf2.cli", "JsonlCache.__init__", "cache_load"),
    ("cli.cache.get", "hf2.cli", "JsonlCache.get", "cache_get"),
    ("cli.cache.put", "hf2.cli", "JsonlCache.put", None),
    ("cli.emit", "hf2.cli", "_emit", None),
]

# Per-layer metric name -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "oracle.model.self_s": "s",
    "oracle.model.calls": "count",
    "oracle.model.cols_built": "count",
    "oracle.model.cols_used": "count",
    "oracle.model.use_ratio": "ratio",
    "oracle.budget.predicted_cols": "count",
    "oracle.budget.predicted_over_built": "ratio",
    "oracle.levels.self_s": "s",
    "oracle.levels.calls": "count",
    "oracle.pi.self_s": "s",
    "oracle.top_dim.self_s": "s",
    "gf2.reduce.self_s": "s",
    "gf2.reduce.calls": "count",
    "gf2.reduce.cols": "count",
    "gf2.express.self_s": "s",
    "gf2.express.calls": "count",
    "engine.basis.self_s": "s",
    "engine.pos.self_s": "s",
    "engine.p4.self_s": "s",
    "engine.p23.self_s": "s",
    "engine.p2.cache_entries": "count",
    "engine.p2.cache_hit_ratio": "ratio",
    "engine.p2.max_depth": "count",
    "engine.classes": "count",
    "reps.self_s": "s",
    "reps.calls": "count",
    "cli.import_s": "s",
    "cli.cache.load_s": "s",
    "cli.cache.lines_loaded": "count",
    "cli.cache.puts": "count",
    "cli.cache.put_s": "s",
    "cli.cache.hit_ratio": "ratio",
    "cli.emit_s": "s",
    "trace.degrees": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.labels: dict = {}
        self.stack: list = []
        self.counters: dict = {}
        self.maxima: dict = {}
        self.missing: list = []
        self._patched: list = []
        self._last_model = None

    # -- recording ------------------------------------------------------------

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def root(self, label: str, fn, *args):
        """Call fn(*args) inside a root span labelled with what it answers."""
        idx = self._open(ROOT)
        self.labels[idx] = label
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook):
        tracer = self
        on_result = getattr(self, f"_hook_{hook}") if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    # -- hooks: counts taken at the same boundaries as the spans ----------------

    def _hook_model(self, args, result) -> None:
        if result is self._last_model or not hasattr(result, "total_cols"):
            return  # sphere_complex hands back the complex its last smash built
        self._last_model = result
        self.count("oracle.model.cols_built", result.total_cols())

    def _hook_levels(self, args, result) -> None:
        self.count("oracle.model.cols_used", len(result))

    def _hook_budget(self, args, result) -> None:
        self.count("oracle.budget.predicted_cols", result)

    def _hook_reduce(self, args, result) -> None:
        # CohomologyReducer(self, dim, d_in_columns, d_out_columns)
        if len(args) >= 4:
            self.count("gf2.reduce.cols", len(args[2]) + len(args[3]))

    def _hook_basis(self, args, result) -> None:
        elements = getattr(result, "elements", ())
        self.count("engine.classes", len(elements))
        depth = max((e.depth for e in elements), default=0)
        self.maxima["engine.p2.max_depth"] = max(self.maxima.get("engine.p2.max_depth", 0), depth)

    def _hook_cache_load(self, args, result) -> None:
        self.count("cli.cache.lines_loaded", len(getattr(args[0], "data", ())))

    def _hook_cache_get(self, args, result) -> None:
        self.count("cli.cache.gets", 1)
        self.count("cli.cache.hits", result is not None)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path, hook in SPECS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{path}")
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{path}")
                continue
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hook))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------------

    def tally(self) -> dict:
        """Calls and self time per span name, plus counters; mergeable."""
        spans: dict = {}
        for name, start, end, parent in self.spans:
            dur = end - start
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += dur
            if parent >= 0:
                spans.setdefault(self.spans[parent][0], [0, 0.0])[1] -= dur
        counters = dict(self.counters)
        engine = importlib.import_module("hf2.engine")
        info = getattr(getattr(engine, "_d_lambda0", None), "cache_info", None)
        if info is not None:
            ci = info()
            counters["engine.p2.cache_entries"] = ci.currsize
            counters["engine.p2.hits"] = ci.hits
            counters["engine.p2.misses"] = ci.misses
        counters["trace.spans"] = len(self.spans)
        return {"spans": spans, "counters": counters, "maxima": dict(self.maxima),
                "missing": list(self.missing)}

    def dump(self) -> dict:
        """Every span: names once, then [name index, start, end, parent],
        times in seconds from the first span."""
        names: dict = {}
        rows = []
        t0 = self.spans[0][1] if self.spans else 0.0
        for name, start, end, parent in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, round(start - t0, 7), round(end - t0, 7), parent])
        return {"names": list(names), "spans": rows, "root_labels": self.labels}


def write_trace(path, processes: list) -> None:
    """Write the span dumps of one or more traced processes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"processes": processes}, fh, separators=(",", ":"))


def merge(tallies: list) -> dict:
    out = {"spans": {}, "counters": {}, "maxima": {}, "missing": []}
    for t in tallies:
        for name, (calls, self_s) in t["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, val in t["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + val
        for key, val in t["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), val)
        out["missing"] = sorted(set(out["missing"]) | set(t["missing"]))
    return out


def per_layer_metrics(tally: dict, extra: dict) -> dict:
    """Every per-layer metric from a merged tally; extra supplies the ones
    measured outside the traced process (import time, overhead, degrees)."""
    spans, c = tally["spans"], tally["counters"]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def ratio(a, b):
        return a / b if b else 0.0

    built = c.get("oracle.model.cols_built", 0)
    values = {
        "oracle.model.self_s": self_s("oracle.model"),
        "oracle.model.calls": calls("oracle.model"),
        "oracle.model.cols_built": built,
        "oracle.model.cols_used": c.get("oracle.model.cols_used", 0),
        "oracle.model.use_ratio": ratio(c.get("oracle.model.cols_used", 0), built),
        "oracle.budget.predicted_cols": c.get("oracle.budget.predicted_cols", 0),
        "oracle.budget.predicted_over_built": ratio(c.get("oracle.budget.predicted_cols", 0), built),
        "oracle.levels.self_s": self_s("oracle.levels"),
        "oracle.levels.calls": calls("oracle.levels"),
        "oracle.pi.self_s": self_s("oracle.pi"),
        "oracle.top_dim.self_s": self_s("oracle.top_dim"),
        "gf2.reduce.self_s": self_s("gf2.reduce"),
        "gf2.reduce.calls": calls("gf2.reduce"),
        "gf2.reduce.cols": c.get("gf2.reduce.cols", 0),
        "gf2.express.self_s": self_s("gf2.express"),
        "gf2.express.calls": calls("gf2.express"),
        "engine.basis.self_s": self_s("engine.basis"),
        "engine.pos.self_s": self_s("engine.pos"),
        "engine.p4.self_s": self_s("engine.p4"),
        "engine.p23.self_s": self_s("engine.p23"),
        "engine.p2.cache_entries": c.get("engine.p2.cache_entries", 0),
        "engine.p2.cache_hit_ratio": ratio(
            c.get("engine.p2.hits", 0), c.get("engine.p2.hits", 0) + c.get("engine.p2.misses", 0)),
        "engine.p2.max_depth": tally["maxima"].get("engine.p2.max_depth", 0),
        "engine.classes": c.get("engine.classes", 0),
        "reps.self_s": self_s("reps"),
        "reps.calls": calls("reps"),
        "cli.cache.load_s": self_s("cli.cache.load"),
        "cli.cache.lines_loaded": c.get("cli.cache.lines_loaded", 0),
        "cli.cache.puts": calls("cli.cache.put"),
        "cli.cache.put_s": self_s("cli.cache.put"),
        "cli.cache.hit_ratio": ratio(c.get("cli.cache.hits", 0), c.get("cli.cache.gets", 0)),
        "cli.emit_s": self_s("cli.emit"),
        "trace.spans": c.get("trace.spans", 0),
    }
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
