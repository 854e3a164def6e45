"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

- BENCHMARK.json, layers.json and the code name the same workloads and metrics.
- A seed gives the same inputs every time, and another seed other inputs.
- An injected fault (engine.dimension answers one too many) makes every
  workload report failures, and the unfaulted run reports none.
- A wrapper whose target is missing leaves its span absent instead of failing.
- The traced counts repeat exactly for a seed.

Exits 1 if any check fails.
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads as wl

COUNTS = ("oracle.model.cols_built", "oracle.model.cols_used", "gf2.reduce.calls",
          "engine.p2.cache_entries", "engine.classes")
FAILURES: list = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def names_agree() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((run.BENCH / "layers.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "BENCHMARK.json workloads match the code")
    check(set(layers["workloads"]) == set(wl.WORKLOADS), "layers.json workloads match the code")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
          "BENCHMARK.json end-to-end metrics and units match the code")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS,
          "BENCHMARK.json per-layer metrics and units match the code")
    listed = {m for layer in layers["layers"].values() for m in layer["metrics"]}
    check(listed == set(tracing.PER_LAYER_UNITS), "layers.json lists every per-layer metric once")


def seeds_repeat() -> None:
    for name, make in (("verify", wl.verify_rounds), ("mackey", wl.mackey_rounds),
                       ("engine-scan", wl.engine_rounds)):
        first = list(itertools.islice(make(7), 40))
        check(first == list(itertools.islice(make(7), 40)), f"{name}: seed 7 repeats")
        check(first != list(itertools.islice(make(8), 40)), f"{name}: seed 8 differs")
    check(wl.cli_plan(7, 3, 8) == wl.cli_plan(7, 3, 8), "cli-cache: seed 7 repeats")
    check(wl.cli_plan(7, 3, 8)[2] != wl.cli_plan(8, 3, 8)[2], "cli-cache: seed 8 differs")


def faults_bite() -> None:
    for workload in wl.WORKLOADS:
        clean = run.run(workload, 3, 2, trace=False)
        check(clean["failed"] == 0 and clean["attempted"] > 0,
              f"{workload}: clean run has no failures ({clean['failed']} of {clean['attempted']})")
        faulty = run.run(workload, 3, 2, trace=False, inject_fault=True)
        check(faulty["failed"] > 0,
              f"{workload}: injected fault is caught ({faulty['failed']} of {faulty['attempted']})")


def missing_names_are_absent() -> None:
    saved = list(tracing.SPECS)
    tracing.SPECS.append(("oracle.gone", "hf2.oracle", "no_such_function", None))
    tracing.SPECS.append(("gf2.gone", "hf2.gf2", "NoSuchClass.method", None))
    sys.path.insert(0, str(run.SRC))
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        tracing.SPECS[:] = saved
    check(tracer.missing == ["hf2.oracle.no_such_function", "hf2.gf2.NoSuchClass.method"],
          "missing wrapper targets are skipped and reported")


def counts_repeat() -> None:
    measured_outside = {"cli.import_s": 0, "trace.degrees": 0, "trace.overhead_s": 0,
                        "trace.overhead_share": 0}
    run.TMP_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.TMP_DIR) as tmp:
        runner = run.Runner(Path(tmp))
        for workload, rounds in (("verify", 4), ("mackey", 1), ("engine-scan", 200)):
            seen = []
            for _ in range(2):
                res = runner.worker(workload, 5, "--rounds", str(rounds), "--trace-out",
                                    str(Path(tmp) / "trace.json")).last_json()
                metrics = tracing.per_layer_metrics(res["tally"], measured_outside)
                seen.append({k: metrics[k]["value"] for k in COUNTS})
            check(seen[0] == seen[1], f"{workload}: traced counts repeat for a seed {seen[0]}")


def main() -> int:
    names_agree()
    seeds_repeat()
    missing_names_are_absent()
    counts_repeat()
    faults_bite()
    print(f"{len(FAILURES)} failed" if FAILURES else "all benchmark self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
