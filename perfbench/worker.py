"""One workload in a fresh process: import hf2, build the seeded inputs,
print "ready", run the closed loop, check every answer, and print one JSON
result line.  Started by run.py; not meant to be run by hand.

Modes:
  --seconds S    loop until S seconds have passed (or the rounds run out)
  --rounds K     run exactly K rounds (traced and overhead runs)
  --setup-only   stop right after "ready" (set-up time samples)
  --answers      cli-cache only: print engine dimensions of the plan's degrees
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import workloads as wl


def _make(deg):
    from hf2 import reps

    n, t, a, lam = deg
    return reps.make_degree(n, t, a, lam)


def _entry_and_check(workload: str):
    """(entry, check): entry(n, d) is the timed call, check(n, d, out) is
    True when the answer is right."""
    from hf2 import duality, engine, oracle, reps

    if workload == "verify":
        def entry(n, d):
            return engine.dimension(n, d), oracle.oracle_top_dim(n, d)

        def check(n, d, out):
            return out[0] == out[1]
    elif workload == "mackey":
        def entry(n, d):
            return oracle.oracle_pi(n, d)

        def check(n, d, out):
            dims = out.level_dims
            if len(dims) != n + 1 or dims[0] != (1 if reps.underlying_dim(d) == 0 else 0):
                return False
            return all(dims[j] == engine.dimension(j, reps.restrict(d, j)) for j in range(1, n + 1))
    elif workload == "engine-scan":
        def entry(n, d):
            return engine.basis(n, d)

        def check(n, d, out):
            return len(out.elements) == engine.dimension(n, duality.dual_degree(n, d))
    else:
        raise SystemExit(f"no in-process loop for workload {workload!r}")
    return entry, check


def _rounds(workload: str, seed: int):
    if workload == "verify":
        return iter(wl.verify_rounds(seed))
    if workload == "mackey":
        return iter(wl.mackey_rounds(seed))
    return wl.engine_rounds(seed)


def _inject_fault() -> None:
    """Benchmark self-test: engine.dimension answers one too many."""
    from hf2 import engine

    real = engine.dimension
    engine.dimension = lambda n, d: real(n, d) + 1


def _loop(args, rounds, tracer) -> dict:
    """Closed loop over the rounds.  Calibration samples are taken at the
    start and every CAL_EVERY_S; their time is not loop time."""
    entry, check = _entry_and_check(args.workload)
    times, errors = [], []
    attempted = failed = 0
    if args.rounds is not None:
        rounds = itertools.islice(rounds, args.rounds)
    cal = [wl.calibrate()]
    start = next_cal = time.perf_counter()
    deadline = None if args.seconds is None else start + args.seconds
    for row in rounds:
        for deg in row:
            n, d = deg[0], _make(deg)
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = tracer.root(wl.format_degree(deg), entry, n, d) if tracer else entry(n, d)
            except Exception as exc:  # a raise counts as a failed degree
                times.append(time.perf_counter() - t0)
                failed += 1
                if len(errors) < 20:
                    errors.append(f"{wl.format_degree(deg)}: {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            try:
                ok = check(n, d, out)
            except Exception as exc:
                ok = False
                if len(errors) < 20:
                    errors.append(f"{wl.format_degree(deg)}: check raised {type(exc).__name__}: {exc}")
            if not ok:
                failed += 1
                if len(errors) < 20:
                    errors.append(f"{wl.format_degree(deg)}: check failed")
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            break
        if now >= next_cal + wl.CAL_EVERY_S:
            cal.append(wl.calibrate())
            next_cal = time.perf_counter()
            start += next_cal - now  # calibration is not loop time
            if deadline is not None:
                deadline += next_cal - now
    wall = time.perf_counter() - start
    summary = wl.summarize(times, wl.TAIL_PCT[args.workload])
    return {"attempted": attempted, "failed": failed, "errors": errors, "wall_s": wall,
            "cal_s": cal, **summary}


def _answers(args) -> dict:
    from hf2 import engine

    _, degrees, _ = wl.cli_plan(args.seed, 0, 0)
    return {"dims": {wl.format_degree(d): engine.dimension(d[0], _make(d)) for d in degrees}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--rounds", type=int)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--answers", action="store_true")
    p.add_argument("--trace-out")
    p.add_argument("--inject-fault", action="store_true")
    args = p.parse_args(argv)

    import hf2  # noqa: F401  (set-up time includes the package import)

    if args.answers:
        inputs = None
    elif args.workload == "cli-cache":
        inputs = wl.cli_plan(args.seed, 1, wl.CLI_QUERIES_PER_CYCLE)
    else:
        rounds = _rounds(args.workload, args.seed)
        inputs = next(rounds) if args.setup_only else rounds
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.inject_fault:
        _inject_fault()
    if args.answers:
        result = _answers(args)
    else:
        tracer = None
        if args.trace_out:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        result = _loop(args, inputs, tracer)
        if tracer:
            tracer.uninstall()
            result["tally"] = tracer.tally()
            tracing.write_trace(args.trace_out, [tracer.dump()])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
