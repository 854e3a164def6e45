"""Run the benchmark on seeds 1..10 of every workload and report each
end-to-end metric's median, quartiles and spread (interquartile distance over
the median) against the bounds in BENCHMARK.json, for the reported (scaled)
values and for the raw ones.

    python3 perfbench/prove.py [--write-baseline]

--write-baseline stores all of it, raw values included, in
perfbench/baseline.json, replacing the file; later changes are judged
against that file.  Exits 1 if any spread of a reported value is above its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, str]:
    """The result line, the raw values and the machine facts of one run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    raw = json.loads(next(ln for ln in lines if ln.startswith("raw: "))[len("raw: "):])
    facts = next((ln for ln in lines if ln.startswith("machine: ")), "machine: unknown")
    return result, raw, facts[len("machine: "):]


def spread_of(vals: list) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write-baseline", action="store_true")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {name: [] for name in bounds}
        raws: dict = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in SEEDS:
            result, raw, baseline["machine"] = one_run(workload, seed, spec["run_seconds"])
            failed += result["failed"]
            attempted += result["attempted"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
                raws[name].append(raw[name])
        rows = {}
        print(f"{workload}: failed {failed} of {attempted} attempted")
        for name in bounds:
            row = spread_of(values[name])
            row["raw"] = spread_of(raws[name])
            ok = row["spread"] <= bounds[name]
            all_ok &= ok
            flag = "" if row["spread"] < bounds[name] / 3 else (
                " (over a third of the bound)" if ok else " OVER BOUND")
            print(f"  {name:20s} median {row['median']:.6g}  q1 {row['q1']:.6g}  "
                  f"q3 {row['q3']:.6g}  spread {row['spread']:.3f} / bound {bounds[name]}"
                  f"{flag}  (raw spread {row['raw']['spread']:.3f})")
            rows[name] = row
        baseline["workloads"][workload] = {"failed": failed, "attempted": attempted, "metrics": rows}
    if args.write_baseline:
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
