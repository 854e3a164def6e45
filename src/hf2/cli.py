"""Command-line harness: basis and dimension queries, batch differential
verification against the oracle, duality and induction-slice scans, Mackey
functor output, and summand bookkeeping.

Exit codes: 0 pass, 1 verified mismatch, 2 usage or IO error, 3 budget
exceeded for a required computation, 4 internal fault (an invariant of the
engine or oracle failed: a defect in hf2, not in the input).  Reports are
deterministic: record ordering follows box iteration order and timestamps
only appear in the "meta" sidecar, which comparison tooling must ignore.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import re
import sys
import time
from dataclasses import dataclass

from . import duality, engine, gf2, oracle, reps
from .gf2 import InternalInvariantError
from .monomial import eps_rename
from .reps import Degree, DegreeError

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


# -- degree boxes -------------------------------------------------------------


@dataclass(frozen=True)
class DegreeBox:
    """Inclusive per-coordinate ranges; iteration is lexicographic in
    (t, c_alpha, c_lambda[0], ...)."""

    n: int
    t: tuple[int, int]
    a: tuple[int, int]
    lam: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for lo, hi in (self.t, self.a) + self.lam:
            if lo > hi:
                raise UsageError(f"empty range {lo}..{hi} in box")

    def __iter__(self):
        slots = (self.t, self.a, *self.lam)
        for t, a, *lam in itertools.product(*(range(lo, hi + 1) for lo, hi in slots)):
            yield reps.make_degree(self.n, t, a, lam)

    def size(self) -> int:
        out = 1
        for lo, hi in (self.t, self.a) + self.lam:
            out *= hi - lo + 1
        return out

    def describe(self) -> str:
        items = [f"t={self.t[0]}..{self.t[1]}", f"a={self.a[0]}..{self.a[1]}"]
        items += [f"l{i}={lo}..{hi}" for i, (lo, hi) in enumerate(self.lam)]
        return ",".join(items)


_RANGE_RE = re.compile(r"(t|a|l(\d+))=(-?\d+)\.\.(-?\d+)\Z")


def parse_box(text: str, n: int) -> DegreeBox:
    t = a = None
    lam: dict[int, tuple[int, int]] = {}
    for item in text.split(","):
        item = item.strip()
        m = _RANGE_RE.fullmatch(item)
        if not m:
            raise UsageError(f"bad box item {item!r}; expected like t=-8..8")
        lo, hi = int(m.group(3)), int(m.group(4))
        if m.group(1) == "t":
            repeated, t = t is not None, (lo, hi)
        elif m.group(1) == "a":
            repeated, a = a is not None, (lo, hi)
        else:
            idx = int(m.group(2))
            if not 0 <= idx <= n - 2:
                raise UsageError(f"lambda slot l{idx} out of range for n={n}")
            repeated, lam[idx] = idx in lam, (lo, hi)
        if repeated:
            raise UsageError(f"box item {item!r} repeats a coordinate")
    if t is None or a is None:
        raise UsageError("box must give t=lo..hi and a=lo..hi")
    full = tuple(lam.get(i, (0, 0)) for i in range(n - 1))
    return DegreeBox(n, t, a, full)


# -- cache --------------------------------------------------------------------


class JsonlCache:
    """Append-only JSON-lines cache, one file per group, checksum per line."""

    def __init__(self, directory: str, n: int):
        self.path = os.path.join(directory, f"hf2-cache-n{n}.jsonl")
        self.data: dict[str, int] = {}
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key, val, h = rec["k"], rec["v"], rec["h"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # corrupted line: recompute later
                if _line_hash(key, val) != h:
                    continue
                self.data[key] = val

    def get(self, key: str):
        return self.data.get(key)

    def put(self, key: str, value: int) -> None:
        if key in self.data:
            return
        self.data[key] = value
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"k": key, "v": value, "h": _line_hash(key, value)}) + "\n"
            )


def _line_hash(key: str, value) -> str:
    return hashlib.sha1(f"{key}={value}".encode()).hexdigest()[:12]


# Only oracle values are cached: engine values cost less to recompute than to
# store and load again.  These modules compute the cached values.
_ORACLE_MODULES = (oracle, gf2)


@functools.cache
def _fingerprint() -> str:
    """Short hash of the source of the modules that compute oracle values,
    read once per process, so a cached value does not outlive its code."""
    h = hashlib.sha1()
    for module in _ORACLE_MODULES:
        with open(module.__file__, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


def _cache_key(n: int, d: Degree) -> str:
    return f"{SCHEMA_VERSION}|oracle|{_fingerprint()}|{n}|{reps.format_degree(d)}"


def _open_cache(args, n: int):
    directory = args.cache_dir or os.environ.get("HF2_CACHE_DIR")
    if not directory or getattr(args, "no_cache", False):
        return None
    return JsonlCache(directory, n)


# -- workers ------------------------------------------------------------------


def _refusal(exc: oracle.BudgetExceededError) -> str:
    return f"predicted {exc.predicted} columns > budget {exc.cap}"


def _verify_one(task):
    n, deg_str, budget = task
    d = reps.parse_degree(deg_str, n)
    eng = engine.dimension(n, d)
    try:
        orc = oracle.oracle_top_dim(n, d, budget)
        return deg_str, eng, orc, None
    except oracle.BudgetExceededError as exc:
        return deg_str, eng, None, _refusal(exc)


# -- output -------------------------------------------------------------------


def _emit(payload: dict, args, csv_rows=None, table_lines=None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        for row in csv_rows or []:
            print(",".join(str(x) for x in row))
    else:
        for line in table_lines or [json.dumps(payload, indent=2)]:
            print(line)


# -- commands -----------------------------------------------------------------


def cmd_dim(args) -> int:
    val = engine.dimension(args.n, reps.parse_degree(args.deg, args.n))
    if args.format == "json":
        print(json.dumps({"n": args.n, "degree": args.deg, "dimension": val}))
    elif args.format == "csv":
        print("dimension")
        print(val)
    else:
        print(val)
    return EXIT_PASS


def cmd_basis(args) -> int:
    d = reps.parse_degree(args.deg, args.n)
    elements = engine.basis(args.n, d).sorted_elements()
    payload = [e.to_json() for e in elements]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("monomial,part,depth")
        for e in elements:
            print(f"{e.monomial},{e.part},{e.depth}")
    else:
        for e in elements:
            print(f"{str(e.monomial):40s} {e.part:6s} depth={e.depth}")
        print(f"dimension {len(elements)}")
    return EXIT_PASS


def cmd_verify(args) -> int:
    box = parse_box(args.box, args.n)
    cache = _open_cache(args, args.n)
    if args.cache_selftest and cache is None:
        raise UsageError("--cache-selftest needs an open cache "
                         "(--cache-dir or HF2_CACHE_DIR, without --no-cache)")
    t0 = time.time()
    records = []
    degrees = list(box)
    todo = []
    for d in degrees:
        deg_str = reps.format_degree(d)
        orc = cache.get(_cache_key(args.n, d)) if cache else None
        if orc is None:
            todo.append((args.n, deg_str, args.budget))
            records.append(None)
            continue
        eng = engine.dimension(args.n, d)
        try:  # cached values face this run's budget, like fresh ones
            oracle.top_slice(args.n, d, args.budget)
        except oracle.BudgetExceededError as exc:
            records.append((deg_str, eng, None, _refusal(exc)))
        else:
            records.append((deg_str, eng, orc, None))

    if todo:
        if args.jobs > 1:
            from multiprocessing import Pool  # only here: it slows every start-up

            with Pool(args.jobs) as pool:
                results = pool.map(_verify_one, todo, chunksize=16)
        else:
            results = [_verify_one(t) for t in todo]
        it = iter(results)
        for i, rec in enumerate(records):
            if rec is None:
                records[i] = next(it)
        if cache:
            for deg_str, _, orc, skip in results:
                if skip is None:
                    cache.put(_cache_key(args.n, reps.parse_degree(deg_str, args.n)), orc)

    if args.inject_fault:
        deg_str, eng, orc, skip = records[0]
        records[0] = (deg_str, eng + 1, orc, skip)

    out_records = []
    mismatches = skipped = 0
    for deg_str, eng, orc, skip in records:
        rec = {"degree": deg_str, "engine": eng}
        if skip is not None:
            rec["skipped"] = skip
            skipped += 1
        else:
            rec["oracle"] = orc
            rec["match"] = eng == orc
            if eng != orc:
                mismatches += 1
        out_records.append(rec)

    selftest_failures = 0
    if args.cache_selftest:
        step = max(1, len(degrees) // args.cache_selftest)
        for d in degrees[::step][: args.cache_selftest]:
            cached = cache.get(_cache_key(args.n, d))
            if cached is None:
                continue
            try:
                if oracle.oracle_top_dim(args.n, d, args.budget) != cached:
                    selftest_failures += 1
            except oracle.BudgetExceededError:
                pass  # this run's budget refuses the degree, so it cannot be re-checked

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "n": args.n,
        "box": box.describe(),
        "records": out_records,
        "summary": {
            "total": len(out_records),
            "mismatches": mismatches,
            "skipped": skipped,
            "cache_selftest_failures": selftest_failures,
        },
        "pass": mismatches == 0 and skipped == 0 and selftest_failures == 0,
        "meta": {"elapsed_s": round(time.time() - t0, 3)},
    }
    rows = [("degree", "engine", "oracle", "status")]
    for r in out_records:
        rows.append(
            (
                r["degree"],
                r["engine"],
                r.get("oracle", ""),
                "skipped" if "skipped" in r else ("ok" if r["match"] else "MISMATCH"),
            )
        )
    _emit(payload, args, csv_rows=rows, table_lines=[
        f"{r['degree']:24s} engine={r['engine']} "
        + (f"oracle={r['oracle']} {'ok' if r['match'] else 'MISMATCH'}" if "oracle" in r else f"skipped: {r['skipped']}")
        for r in out_records
    ] + [f"summary: {payload['summary']}"])
    if mismatches or selftest_failures:
        return EXIT_MISMATCH
    if skipped:
        return EXIT_BUDGET
    return EXIT_PASS


def cmd_duality_scan(args) -> int:
    box = parse_box(args.box, args.n)
    t0 = time.time()
    report = duality.duality_scan(args.n, box)
    report["schema"] = SCHEMA_VERSION
    report["command"] = "duality-scan"
    report["box"] = box.describe()
    report["meta"] = {"elapsed_s": round(time.time() - t0, 3)}
    _emit(report, args, csv_rows=[("degree", "dual", "dim", "dual_dim")] + [
        (m["degree"], m["dual"], m["dim"], m["dual_dim"]) for m in report["mismatches"]
    ], table_lines=[f"checked {report['checked']} degrees, mismatches {len(report['mismatches'])}"])
    return EXIT_PASS if report["pass"] else EXIT_MISMATCH


def cmd_slice_check(args) -> int:
    if args.n < 2:
        raise UsageError("slice-check needs n >= 2")
    box = parse_box(args.box, args.n - 1)
    t0 = time.time()
    mismatches = []
    total = 0
    for d_low in box:
        total += 1
        d_high = reps.pullback_eps(d_low)
        renamed = {str(eps_rename(m)) for m in engine.basis(args.n - 1, d_low).monomials()}
        upper = {str(m) for m in engine.basis(args.n, d_high).monomials()}
        if renamed != upper:
            mismatches.append(
                {
                    "low_degree": reps.format_degree(d_low),
                    "missing_above": sorted(renamed - upper),
                    "extra_above": sorted(upper - renamed),
                }
            )
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "slice-check",
        "n": args.n,
        "box": box.describe(),
        "checked": total,
        "mismatches": mismatches,
        "pass": not mismatches,
        "meta": {"elapsed_s": round(time.time() - t0, 3)},
    }
    _emit(payload, args, csv_rows=[("low_degree",)] + [(m["low_degree"],) for m in mismatches],
          table_lines=[f"checked {total} slice degrees, mismatches {len(mismatches)}"])
    return EXIT_PASS if not mismatches else EXIT_MISMATCH


def cmd_mackey(args) -> int:
    d = reps.parse_degree(args.deg, args.n)
    try:
        answer = oracle.oracle_pi(args.n, d, args.budget)
    except oracle.BudgetExceededError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET
    payload = answer.to_json()
    payload["schema"] = SCHEMA_VERSION
    _emit(payload, args, csv_rows=[("level", "dim")] + [
        (lv["k"], lv["dim"]) for lv in payload["levels"]
    ], table_lines=[f"level {lv['k']}: dim {lv['dim']}" for lv in payload["levels"]])
    return EXIT_PASS


def cmd_summands(args) -> int:
    audit = engine.summand_audit(args.n)
    audit["schema"] = SCHEMA_VERSION
    lines = [f"n={args.n}: {audit['total']} summands ({audit['families']})"]
    for step in audit.get("p2_recurrence", []):
        lines.append(f"  part2 families at n={step['n']}: {step['p2_families']} ({step['rule']})")
    _emit(audit, args, csv_rows=[("n", "total"), (args.n, audit["total"])],
          table_lines=lines)
    return EXIT_PASS


def cmd_oracle(args) -> int:
    d = reps.parse_degree(args.deg, args.n)
    try:
        dim = oracle.oracle_top_dim(args.n, d, args.budget)
    except oracle.BudgetExceededError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET
    if args.format == "json":
        print(json.dumps({"n": args.n, "degree": args.deg, "oracle_dimension": dim}))
    else:
        print(dim)
    return EXIT_PASS


# -- entry point --------------------------------------------------------------


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hf2",
        description="Graded homotopy calculator for cyclic 2-groups with a "
        "Bredon cohomology oracle.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, deg=False, box=False, budget=False):
        p.add_argument("--n", type=int, required=True, help="group exponent: the group is C_{2^n}")
        if deg:
            p.add_argument("--deg", required=True, help='degree "t,cA,cL0,..."')
        if box:
            p.add_argument("--box", required=True, help='box "t=-8..8,a=-2..2,l0=-2..2,..."')
        if budget:
            p.add_argument("--budget", type=_int_at_least(0), default=None,
                           help=f"oracle column cap (default {oracle.DEFAULT_BUDGET})")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--cache-dir", default=None,
                       help="cache directory (or HF2_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("dim", help="engine dimension in one degree")
    common(p, deg=True)
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("basis", help="engine basis in one degree")
    common(p, deg=True)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("verify", help="differential test: engine vs oracle over a box")
    common(p, box=True, budget=True)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt the first engine value (harness self-test)")
    p.add_argument("--cache-selftest", type=_int_at_least(0), default=0,
                   help="recompute the oracle values of this many cached degrees "
                   "and compare")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("duality-scan", help="dimension symmetry scan over a box")
    common(p, box=True)
    p.set_defaults(func=cmd_duality_scan)

    p = sub.add_parser("slice-check", help="induction-slice bijection over a box "
                       "of degrees for the quotient group (n-1 coordinates)")
    common(p, box=True)
    p.set_defaults(func=cmd_slice_check)

    p = sub.add_parser("mackey", help="full Mackey functor at one degree (oracle)")
    common(p, deg=True, budget=True)
    p.set_defaults(func=cmd_mackey)

    p = sub.add_parser("summands", help="summand family count with audit trail")
    common(p)
    p.set_defaults(func=cmd_summands)

    p = sub.add_parser("oracle", help="oracle top-level dimension at one degree")
    common(p, deg=True, budget=True)
    p.set_defaults(func=cmd_oracle)

    return top


def _join_dash_values(argv: list[str]) -> list[str]:
    """Fold `--deg -2,2` into `--deg=-2,2` so argparse accepts leading minus."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--deg", "--box") and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InternalInvariantError, engine.PartOverlapError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (UsageError, DegreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
