"""hf2 benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the package is read from src/, it
need not be installed).  Workloads: verify, mackey, engine-scan, cli-cache;
see BENCHMARK.json for why each is there and perfbench/layers.json for which
layer moves which metric.

--trace 0 measures the end-to-end metrics with no tracing.  Their times are
scaled by speed factors from calibration samples timed next to them (a
pure-Python loop for in-process loops, a bare interpreter spawn for process
times; see workloads.SPAWN_REF_S), so that contention from other tenants of
the machine moves them less; the report prints each raw value beside it.
--trace 1 runs a fixed number of rounds twice, untraced and traced, and
reports the per-layer metrics and the tracing overhead (traced wall minus
untraced wall); its spans are written to .perfbench_out/.  Every workload runs in fresh child
processes, so no cache or import state carries over between runs, and only
one process computes at a time.  verify, mackey and engine-scan take their
cli_* metrics from a few CLI probe cycles run after their workload process
has exited.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it, "raw: {...}",
holds the unscaled end-to-end values.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END_UNITS = {
    "degrees_per_s": "1/s",
    "degree_p50_ms": "ms",
    "degree_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "cli_cold_verify_s": "s",
    "cli_warm_verify_s": "s",
    "cli_query_s": "s",
}
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 150
CLI_TIMEOUT_S = 60


class BenchError(RuntimeError):
    """The harness itself could not run; no result is printed."""


class Child:
    def __init__(self, code, out, err, wall_s, ready_s, maxrss_kb):
        self.code, self.out, self.err = code, out, err
        self.wall_s, self.ready_s, self.maxrss_kb = wall_s, ready_s, maxrss_kb

    def last_json(self) -> dict:
        lines = [ln for ln in self.out.splitlines() if ln.strip()]
        if self.code != 0 or not lines:
            raise BenchError(f"child exited {self.code}: {self.err.strip()[-2000:]}")
        return json.loads(lines[-1])


class Runner:
    """Spawns one child at a time inside a private temporary directory."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self._ids = itertools.count()
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    def spawn(self, cmd, timeout=CHILD_TIMEOUT_S, want_ready=False) -> Child:
        """Run cmd to the end and reap it with its own resource usage."""
        err_path = self.tmp / f"stderr-{next(self._ids)}.txt"
        with open(err_path, "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                    stderr=err, cwd=ROOT, env=self.env, text=True)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                ready_s = None
                if want_ready:
                    line = proc.stdout.readline()
                    if line.strip() == "ready":
                        ready_s = time.perf_counter() - t0
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:  # interrupted before it was reaped
                    proc.kill()
                    proc.wait()
            err.seek(0)
            err_text = err.read()
        return Child(proc.returncode, out, err_text, wall, ready_s, usage.ru_maxrss)

    def bare_spawn(self) -> float:
        """Wall time of a bare interpreter, the calibration sample of
        process times."""
        child = self.spawn([sys.executable, "-c", "pass"])
        if child.code != 0:
            raise BenchError(f"python -c pass failed: {child.err.strip()[-2000:]}")
        return child.wall_s

    def worker(self, workload, seed, *extra, want_ready=False) -> Child:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
               "--seed", str(seed), *extra]
        return self.spawn(cmd, want_ready=want_ready)


# -- machine facts ---------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(hf2_version: str) -> dict:
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "commit": _git_commit(),
            "hf2_version": hf2_version}


# -- the CLI workload ------------------------------------------------------------


class CliWorkload:
    """Cycles of: verify over a small n=3 box into an empty cache dir, the
    same verify again (warm), then one-shot dim/oracle queries against the
    warm cache.  Every answer is checked against in-process engine values."""

    def __init__(self, runner: Runner, seed: int, queries: int, cycles: int = 1000,
                 traced: bool = False, inject_fault: bool = False):
        self.runner, self.traced = runner, traced
        self.box_text, self.degrees, plan = wl.cli_plan(seed, cycles, queries)
        self.plan = iter(plan)
        extra = ["--answers"] + (["--inject-fault"] if inject_fault else [])
        self.expected = runner.worker("cli-cache", seed, *extra).last_json()["dims"]
        self.cold_s, self.warm_s, self.query_s = [], [], []
        self.traces, self.errors, self.cal_s = [], [], []
        self.maxrss_kb = self.attempted = self.failed = self.degrees_ok = 0
        self.wall_s = 0.0

    def _fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(msg)

    def _cli(self, args):
        self.cal_s.append(self.runner.bare_spawn())
        if self.traced:
            tally_path = self.runner.tmp / f"tally-{len(self.traces)}.json"
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(tally_path), "--", *args]
        else:
            cmd = [sys.executable, "-m", "hf2.cli", *args]
        child = self.runner.spawn(cmd, timeout=CLI_TIMEOUT_S)
        self.maxrss_kb = max(self.maxrss_kb, child.maxrss_kb)
        self.wall_s += child.wall_s
        if self.traced and tally_path.exists():
            self.traces.append(json.loads(tally_path.read_text()))
        self.attempted += 1
        try:
            payload = json.loads(child.out) if child.code == 0 else None
        except json.JSONDecodeError:
            payload = None
        if payload is None:
            self._fail(f"{args[0]} exited {child.code}: {child.err.strip()[-300:]}")
        return child.wall_s, payload

    def cycle(self) -> bool:
        """Run the next cycle; False when the plan is used up."""
        queries = next(self.plan, None)
        if queries is None:
            return False
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.runner.tmp)
        verify = ["verify", "--n", "3", f"--box={self.box_text}", "--cache-dir", cache_dir]
        reports = []
        for times in (self.cold_s, self.warm_s):
            wall, payload = self._cli(verify)
            times.append(wall)
            if payload is not None:
                if payload.get("pass") is not True:
                    self._fail("verify: pass is not true")
                else:
                    self.degrees_ok += len(self.degrees)
                payload.pop("meta", None)
            reports.append(payload)
        if reports[0] is not None and reports[0] != reports[1]:
            self._fail("warm verify report differs from cold outside meta")
        for command, deg in queries:
            text = wl.format_degree(deg)
            wall, payload = self._cli([command, "--n", "3", f"--deg={text}", "--cache-dir", cache_dir])
            self.query_s.append(wall)
            if payload is None:
                continue
            got = payload.get("dimension" if command == "dim" else "oracle_dimension")
            if got != self.expected[text]:
                self._fail(f"{command} {text}: got {got}, engine says {self.expected[text]}")
            else:
                self.degrees_ok += 1
        shutil.rmtree(cache_dir, ignore_errors=True)
        return True

    def run_for(self, seconds: float) -> float:
        """Cycles until `seconds` have passed; returns the wall time spent,
        less the calibration samples taken meanwhile."""
        start, cal_before = time.perf_counter(), len(self.cal_s)
        while time.perf_counter() - start < seconds and self.cycle():
            pass
        return time.perf_counter() - start - sum(self.cal_s[cal_before:])


# -- one run ----------------------------------------------------------------------


def _setup_s(runner: Runner, workload: str, seed: int, cal: list) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal.append(runner.bare_spawn())
        child = runner.worker(workload, seed, "--setup-only", want_ready=True)
        if child.code != 0 or child.ready_s is None:
            raise BenchError(f"set-up of {workload} failed: {child.err.strip()[-2000:]}")
        samples.append(child.ready_s)
    return statistics.median(samples)


def _import_s(runner: Runner) -> float:
    def median_wall(code):
        walls = []
        for _ in range(IMPORT_SAMPLES):
            child = runner.spawn([sys.executable, "-c", code])
            if child.code != 0:
                raise BenchError(f"python -c {code!r} failed: {child.err.strip()[-2000:]}")
            walls.append(child.wall_s)
        return statistics.median(walls)

    return median_wall("import hf2.cli") - median_wall("pass")


def _version(runner: Runner) -> str:
    child = runner.spawn([sys.executable, "-c", "import hf2; print(hf2.__version__)"])
    if child.code != 0:
        raise BenchError(f"cannot import hf2 from {SRC}: {child.err.strip()[-2000:]}")
    return child.out.strip()


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float,
               inject_fault: bool = False) -> dict:
    setup_cal: list = []
    setup = _setup_s(runner, workload, seed, setup_cal)
    fault = ["--inject-fault"] if inject_fault else []
    if workload == "cli-cache":
        cli = CliWorkload(runner, seed, wl.CLI_QUERIES_PER_CYCLE, inject_fault=inject_fault)
        elapsed = cli.run_for(seconds)
        rate = cli.degrees_ok / elapsed
        summary = wl.summarize(cli.query_s, wl.TAIL_PCT[workload])
        rss_kb = cli.maxrss_kb
        attempted, failed, errors = cli.attempted, cli.failed, cli.errors
        loop_factor = wl.speed_factor(cli.cal_s, wl.SPAWN_REF_S)
    else:
        child = runner.worker(workload, seed, "--seconds", str(seconds), *fault)
        res = child.last_json()
        cli = CliWorkload(runner, seed, wl.PROBE_QUERIES_PER_CYCLE, cycles=wl.PROBE_CYCLES,
                          inject_fault=inject_fault)
        while cli.cycle():
            pass
        summary = {k: res[k] for k in ("p50_ms", "tail_ms", "tail_pct", "tail_beyond", "samples")}
        rate = (res["attempted"] - res["failed"]) / res["wall_s"]
        rss_kb = child.maxrss_kb
        attempted = res["attempted"] + cli.attempted
        failed = res["failed"] + cli.failed
        errors = res["errors"] + cli.errors
        loop_factor = wl.speed_factor(res["cal_s"])
    if not summary["samples"] or not cli.query_s:
        raise BenchError(f"{workload}: nothing was measured in {seconds} s")
    raw = {
        "degrees_per_s": rate,
        "degree_p50_ms": summary["p50_ms"],
        "degree_tail_ms": summary["tail_ms"],
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup,
        "cli_cold_verify_s": statistics.median(cli.cold_s),
        "cli_warm_verify_s": statistics.median(cli.warm_s),
        "cli_query_s": statistics.median(cli.query_s),
    }
    # each metric is scaled by the calibration samples taken next to it
    factors = {"loop": loop_factor, "setup": wl.speed_factor(setup_cal, wl.SPAWN_REF_S),
               "cli": wl.speed_factor(cli.cal_s, wl.SPAWN_REF_S)}
    scaled = {
        "degrees_per_s": raw["degrees_per_s"] / factors["loop"],
        "degree_p50_ms": raw["degree_p50_ms"] * factors["loop"],
        "degree_tail_ms": raw["degree_tail_ms"] * factors["loop"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": raw["setup_s"] * factors["setup"],
        **{k: raw[k] * factors["cli"] for k in ("cli_cold_verify_s", "cli_warm_verify_s", "cli_query_s")},
    }
    return {"attempted": attempted, "failed": failed, "errors": errors, "tail": summary,
            "raw": raw, "speed_factors": factors,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in scaled.items()}}


def per_layer(runner: Runner, workload: str, seed: int) -> dict:
    rounds = wl.TRACE_ROUNDS[workload]
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    if workload == "cli-cache":
        runs = []
        for with_trace in (False, True):
            cli = CliWorkload(runner, seed, wl.CLI_QUERIES_PER_CYCLE, cycles=rounds,
                              traced=with_trace)
            while cli.cycle():
                pass
            runs.append({"attempted": cli.attempted, "failed": cli.failed,
                         "errors": cli.errors, "wall_s": cli.wall_s})
        tally = tracing.merge([t["tally"] for t in cli.traces])
        tracing.write_trace(trace_path, [t["trace"] for t in cli.traces])
    else:
        runs = [runner.worker(workload, seed, "--rounds", str(rounds), *extra).last_json()
                for extra in ([], ["--trace-out", str(trace_path)])]
        tally = runs[1]["tally"]
    plain, traced = runs
    plain_wall, traced_wall = plain["wall_s"], traced["wall_s"]
    for name in tally["missing"]:
        print(f"trace: {name} not found, its span is absent", file=sys.stderr)
    extra = {
        "cli.import_s": _import_s(runner),
        "trace.degrees": traced["attempted"],
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
    }
    return {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "errors": [e for r in runs for e in r["errors"]],
            "metrics": tracing.per_layer_metrics(tally, extra),
            "walls": {"untraced_s": plain_wall, "traced_s": traced_wall}}


def run(workload: str, seed: int, seconds: float, trace: bool,
        inject_fault: bool = False) -> dict:
    """One benchmark run in its own temporary directory; returns the result."""
    if not (SRC / "hf2" / "__init__.py").is_file():
        raise BenchError(f"no hf2 package under {SRC}; run from a source checkout")
    TMP_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR))
    try:
        runner = Runner(tmp)
        facts = machine_facts(_version(runner))
        if trace:
            result = per_layer(runner, workload, seed)
        else:
            result = end_to_end(runner, workload, seed, seconds, inject_fault)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run is using it
    result["facts"] = facts
    return result


def report(workload, seed, seconds, trace, result) -> None:
    facts = result["facts"]
    print(f"hf2 benchmark: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in result["metrics"].items():
        raw = f"   (raw {result['raw'][name]:.6g})" if "raw" in result else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{raw}")
    if not trace:
        print("  times are scaled by the speed factors "
              + ", ".join(f"{k} {v:.4f}" for k, v in result["speed_factors"].items()))
        t = result["tail"]
        print(f"  degree_tail_ms is p{t['tail_pct']:g} of {t['samples']} per-degree samples, "
              f"{t['tail_beyond']} beyond it")
    else:
        w = result["walls"]
        print(f"  tracing overhead: {w['traced_s']:.3f} s traced vs {w['untraced_s']:.3f} s untraced")
    share = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"  failed_share {share:.6g} ({result['failed']} of {result['attempted']} attempted)")
    for err in result["errors"][:10]:
        print(f"  failure: {err}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, args.seconds, bool(args.trace), result)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, **result}) + "\n")
    if "raw" in result:
        print("raw: " + json.dumps(result["raw"]))
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
