"""Command-line harness: basis and dimension queries, batch differential
verification against the oracle, duality and induction-slice scans, Mackey
functor output, and summand bookkeeping.

Every `cmd_*` computes and returns one `Report`: the JSON payload, the CSV
rows and table lines that render it, and the exit code.  `main` alone reads
`--format`, prints the report (`_emit`) and turns an exception into an exit
code.  JSON reports indent unless they are one flat record (`dim`, `oracle`).

Exit codes: 0 pass, 1 verified mismatch, 2 usage or IO error, 3 budget
exceeded for a required computation, 4 internal fault (an invariant of the
engine or oracle failed, a module failed to import, or any other unexpected
exception: a defect in hf2, not in the input), reported with its traceback.
Reports are deterministic: record ordering follows box iteration order and
timestamps only appear in the "meta" sidecar, which comparison tooling must
ignore.

A subcommand imports what it runs, where it runs it: `dim` loads the engine
and no oracle, `oracle` the oracle and no engine, `verify` both.  Building
the parser and mapping exit codes load neither (the budget's refusal lives
in `reps`), so a one-shot query compiles only its own modules.  An oracle
value found in the cache is answered, and checked against the budget,
without loading the oracle or `hashlib`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
import time

from . import reps
from .reps import BudgetExceededError, Degree, DegreeError

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


# -- degree boxes -------------------------------------------------------------


class DegreeBox:
    """Inclusive ranges (lo, hi) of t, c_alpha, c_lambda[0], ..., in that
    order; iteration is lexicographic in them."""

    __slots__ = ("n", "ranges")

    def __init__(self, n: int, ranges: tuple[tuple[int, int], ...]):
        self.n, self.ranges = n, ranges

    def __iter__(self):
        for t, a, *lam in itertools.product(*(range(lo, hi + 1) for lo, hi in self.ranges)):
            yield reps.make_degree(self.n, t, a, lam)

    def describe(self) -> str:
        names = ["t", "a"] + [f"l{i}" for i in range(len(self.ranges) - 2)]
        return ",".join(f"{name}={lo}..{hi}" for name, (lo, hi) in zip(names, self.ranges))


_RANGE_RE = re.compile(r"(t|a|l(\d+))=(-?\d+)\.\.(-?\d+)\Z", re.ASCII)


def parse_box(text: str, n: int) -> DegreeBox:
    """Slot t is 0, a is 1 and l<i> is 2 + i; a slot left out is 0..0."""
    slots: dict[int, tuple[int, int]] = {}
    for item in text.split(","):
        item = item.strip()
        m = _RANGE_RE.fullmatch(item)
        if not m:
            raise UsageError(f"bad box item {item!r}; expected like t=-8..8")
        if m.group(2) is None:
            slot = "ta".index(m.group(1))
        else:
            idx = int(m.group(2))
            if not 0 <= idx <= n - 2:
                raise UsageError(f"lambda slot l{idx} out of range for n={n}")
            slot = 2 + idx
        if slot in slots:
            raise UsageError(f"box item {item!r} repeats a coordinate")
        slots[slot] = int(m.group(3)), int(m.group(4))
    if 0 not in slots or 1 not in slots:
        raise UsageError("box must give t=lo..hi and a=lo..hi")
    ranges = (slots[0], slots[1]) + tuple(slots.get(2 + i, (0, 0)) for i in range(n - 1))
    for lo, hi in ranges:
        if lo > hi:
            raise UsageError(f"empty range {lo}..{hi} in box")
    return DegreeBox(n, ranges)


# -- cache --------------------------------------------------------------------


class JsonlCache:
    """Append-only JSON-lines cache of oracle values, one file per group and
    per fingerprint of the oracle's code (`_fingerprint`), so lines of other
    code are never opened.  A line {"k", "v", "w", "h"} holds a degree
    (`reps.format_degree`), its value and budget width (`oracle.oracle_top`)
    and a checksum of all three, so a hit faces the budget without the
    oracle.  Given one `key`, only the lines that hold it are decoded.  Of
    several valid lines for a key, the last wins."""

    def __init__(self, directory: str, n: int, key: str | None = None):
        self.path = os.path.join(directory, f"hf2-cache-n{n}-{_fingerprint()}.jsonl")
        self.data: dict[str, tuple[int, int]] = {}
        self._load(json.dumps(key).encode() if key else b"")

    def _load(self, needle: bytes) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:  # decoded line by line
            for line in fh:
                if needle not in line:
                    continue  # of another key: it cannot hit
                try:
                    rec = json.loads(line.decode("utf-8"))
                    key, val, width, h = rec["k"], rec["v"], rec["w"], rec["h"]
                except (ValueError, KeyError, TypeError):
                    continue  # blank, undecodable or corrupted line: recompute later
                # the checksum reads "1" and 1 alike, so only ints are trusted
                if ((type(key), type(val), type(width)) != (str, int, int)
                        or _line_hash(key, val, width) != h):
                    continue
                self.data[key] = val, width

    def get(self, key: str):
        return self.data.get(key)

    def put(self, entries: dict[str, tuple[int, int]]) -> None:
        """Append the (value, width) entries, all with one write."""
        self.data.update(entries)
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("".join(
                json.dumps({"k": k, "v": v, "w": w, "h": _line_hash(k, v, w)}) + "\n"
                for k, (v, w) in entries.items()
            ))


def _cache_dir(args) -> str | None:
    return None if args.no_cache else args.cache_dir or os.environ.get("HF2_CACHE_DIR")


@functools.cache
def _sha1():
    """The SHA-1 constructor of CPython's own `_sha1` module, which `hashlib`
    falls back to: importing `hashlib` loads OpenSSL, which costs a short run
    more than all it hashes."""
    try:
        from _sha1 import sha1
    except ImportError:  # an interpreter built without it
        from hashlib import sha1
    return sha1


def _line_hash(key: str, value, width) -> str:
    return _sha1()(f"{key}={value}:{width}".encode()).hexdigest()[:12]


def _oracle_sources() -> list[str]:
    """The source files that decide an oracle value: that of `hf2.oracle`
    and those of the hf2 modules it imports, found next to this file, so
    that none of them is loaded."""
    here = os.path.dirname(__file__)
    return [os.path.join(here, f"{name}.py") for name in ("oracle", "gf2", "reps")]


@functools.cache
def _fingerprint() -> str:
    """Short hash of the source of the modules that compute oracle values,
    read once per process, so a cached value does not outlive its code.
    Only oracle values are cached: engine values cost less to recompute than
    to store and load again."""
    h = _sha1()()
    for path in _oracle_sources():
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:12]


# -- oracle values ------------------------------------------------------------

_CHUNK = 16  # degrees per task handed to a `verify --jobs` worker


def _oracle_value(task):
    """((value, width), None) at d, or (None, (predicted, cap)) when the
    budget refuses d."""
    n, d, budget = task
    from . import oracle

    try:
        return oracle.oracle_top(n, d, budget), None
    except BudgetExceededError as exc:
        return None, (exc.predicted, exc.cap)


def _oracle_values(args, degrees: list[Degree], jobs: int = 1) -> list:
    """`_oracle_value` at each degree under `--budget`.  A cached entry whose
    width fits the budget answers without loading the oracle; every other
    degree takes the oracle's own route, over `jobs` workers, so a refusal
    reads the same cached or not.  What the oracle computed anew is stored
    with one write."""
    keys = [reps.format_degree(d) for d in degrees]
    directory, cache = _cache_dir(args), None
    if directory:  # one degree decodes only the lines that hold its key
        cache = JsonlCache(directory, args.n, keys[0] if len(keys) == 1 else None)
    answers, misses = {}, {}
    for k, d in zip(keys, degrees):
        entry = cache.get(k) if cache else None
        if entry is not None and entry[1] <= args.budget:
            answers[k] = entry, None
        else:
            misses[k] = args.n, d, args.budget
    # a pool starts all its workers at once: no more than there are chunks
    workers = min(jobs, math.ceil(len(misses) / _CHUNK))
    if workers > 1:
        from multiprocessing import Pool  # only here: it slows every start-up

        with Pool(workers) as pool:
            fresh = pool.map(_oracle_value, misses.values(), chunksize=_CHUNK)
    else:
        fresh = map(_oracle_value, misses.values())
    answers.update(zip(misses, fresh))
    if cache:
        new = {k: e for k, (e, _) in answers.items() if e is not None and cache.data.get(k) != e}
        if new:
            cache.put(new)
    return [answers[k] for k in keys]


# -- output -------------------------------------------------------------------


class Report:
    """What a command computed, in every output format, and its exit code.
    CSV rows start with the header, if the format has one."""

    __slots__ = ("payload", "csv", "table", "code")

    def __init__(self, payload: dict | list, csv: list[tuple], table: list, code: int = EXIT_PASS):
        self.payload, self.csv, self.table, self.code = payload, csv, table, code


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        # a flat record (dim, oracle) fits on one line; nested reports indent
        payload = report.payload
        values = payload.values() if isinstance(payload, dict) else payload
        nested = any(isinstance(v, (dict, list)) for v in values)
        print(json.dumps(payload, indent=2 if nested else None))
    elif fmt == "csv":  # quoted where a field holds a comma, as a degree does
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows(report.csv)
    else:
        for line in report.table:
            print(line)


# -- commands -----------------------------------------------------------------


def cmd_dim(args) -> Report:
    from . import engine

    d = reps.parse_degree(args.deg, args.n)
    val = engine.dimension(args.n, d)
    return Report({"n": args.n, "degree": reps.format_degree(d), "dimension": val},
                  csv=[("dimension",), (val,)], table=[val])


def cmd_basis(args) -> Report:
    from . import engine

    d = reps.parse_degree(args.deg, args.n)
    elements = engine.basis(args.n, d).sorted_elements()
    return Report(
        [e.to_json() for e in elements],
        csv=[("monomial", "part", "depth")] + [(e.monomial, e.part, e.depth) for e in elements],
        table=[f"{str(e.monomial):40s} {e.part:6s} depth={e.depth}" for e in elements]
        + [f"dimension {len(elements)}"],
    )


def cmd_verify(args) -> Report:
    from . import engine

    box = parse_box(args.box, args.n)
    if args.cache_selftest and not _cache_dir(args):
        raise UsageError("--cache-selftest needs an open cache "
                         "(--cache-dir or HF2_CACHE_DIR, without --no-cache)")
    t0 = time.time()
    degrees = list(box)
    answers = _oracle_values(args, degrees, args.jobs)
    records = []
    rows, table = [("degree", "engine", "oracle", "status")], []
    for d, (entry, refusal) in zip(degrees, answers):
        rec = {"degree": reps.format_degree(d), "engine": engine.dimension(args.n, d)}
        if refusal is None:
            orc = entry[0]
            rec["oracle"], rec["match"] = orc, rec["engine"] == orc
            status = "ok" if rec["match"] else "MISMATCH"
            detail = f"oracle={orc} {status}"
        else:
            skip = "predicted %d columns > budget %d" % refusal
            rec["skipped"], status, detail = skip, "skipped", f"skipped: {skip}"
        records.append(rec)
        rows.append((rec["degree"], rec["engine"], rec.get("oracle", ""), status))
        table.append(f"{rec['degree']:24s} engine={rec['engine']} {detail}")

    selftest_failures = 0
    if args.cache_selftest:
        step = max(1, len(degrees) // args.cache_selftest)
        for d, (entry, _) in list(zip(degrees, answers))[::step][: args.cache_selftest]:
            if entry is not None:
                # the width too: a stale one would let a hit round the budget,
                # so a fresh refusal of an answered degree is a failure
                fresh, _ = _oracle_value((args.n, d, args.budget))
                selftest_failures += fresh != entry

    mismatches = sum(rec.get("match") is False for rec in records)
    skipped = sum("skipped" in rec for rec in records)
    summary = {
        "total": len(records),
        "mismatches": mismatches,
        "skipped": skipped,
        "cache_selftest_failures": selftest_failures,
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "n": args.n,
        "box": box.describe(),
        "records": records,
        "summary": summary,
        "pass": mismatches == 0 and skipped == 0 and selftest_failures == 0,
        "meta": {"elapsed_s": round(time.time() - t0, 3)},
    }
    code = EXIT_MISMATCH if mismatches or selftest_failures else EXIT_BUDGET if skipped else EXIT_PASS
    return Report(payload, csv=rows, table=table + [f"summary: {summary}"], code=code)


def cmd_duality_scan(args) -> Report:
    from . import duality

    box = parse_box(args.box, args.n)
    t0 = time.time()
    report = duality.duality_scan(args.n, box)
    report["schema"] = SCHEMA_VERSION
    report["command"] = "duality-scan"
    report["box"] = box.describe()
    report["meta"] = {"elapsed_s": round(time.time() - t0, 3)}
    mismatches = report["mismatches"]
    return Report(
        report,
        csv=[("degree", "dual", "dim", "dual_dim")]
        + [(m["degree"], m["dual"], m["dim"], m["dual_dim"]) for m in mismatches],
        table=[f"checked {report['checked']} degrees, mismatches {len(mismatches)}"],
        code=EXIT_PASS if report["pass"] else EXIT_MISMATCH,
    )


def cmd_slice_check(args) -> Report:
    if args.n < 2:
        raise UsageError("slice-check needs n >= 2")
    from . import engine
    from .monomial import eps_rename

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
    return Report(
        payload,
        csv=[("low_degree",)] + [(m["low_degree"],) for m in mismatches],
        table=[f"checked {total} slice degrees, mismatches {len(mismatches)}"],
        code=EXIT_MISMATCH if mismatches else EXIT_PASS,
    )


def cmd_mackey(args) -> Report:
    from . import oracle

    d = reps.parse_degree(args.deg, args.n)
    payload = oracle.oracle_pi(args.n, d, args.budget).to_json()
    payload["schema"] = SCHEMA_VERSION
    levels = payload["levels"]
    return Report(payload, csv=[("level", "dim")] + [(lv["k"], lv["dim"]) for lv in levels],
                  table=[f"level {lv['k']}: dim {lv['dim']}" for lv in levels])


def cmd_summands(args) -> Report:
    from . import engine

    audit = engine.summand_audit(args.n)
    audit["schema"] = SCHEMA_VERSION
    lines = [f"n={args.n}: {audit['total']} summands ({audit['families']})"]
    for step in audit.get("p2_recurrence", []):
        lines.append(f"  part2 families at n={step['n']}: {step['p2_families']} ({step['rule']})")
    return Report(audit, csv=[("n", "total"), (args.n, audit["total"])], table=lines)


def cmd_oracle(args) -> Report:
    d = reps.parse_degree(args.deg, args.n)
    [(entry, refusal)] = _oracle_values(args, [d])
    if refusal is not None:  # a one-degree query cannot skip it
        raise BudgetExceededError(d, *refusal)
    dim = entry[0]
    return Report({"n": args.n, "degree": reps.format_degree(d), "oracle_dimension": dim},
                  csv=[("oracle_dimension",), (dim,)], table=[dim])


# -- entry point --------------------------------------------------------------


def _int_at_least(low: float = -math.inf):
    def parse(text: str) -> int:
        if not reps.INTEGER_RE.fullmatch(text):
            raise ValueError(text)
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
    for name, func, help_text, needs in (
        ("dim", cmd_dim, "engine dimension in one degree", {"deg"}),
        ("basis", cmd_basis, "engine basis in one degree", {"deg"}),
        ("verify", cmd_verify, "differential test: engine vs oracle over a box", {"box", "budget"}),
        ("duality-scan", cmd_duality_scan, "dimension symmetry scan over a box", {"box"}),
        ("slice-check", cmd_slice_check, "induction-slice bijection over a box of degrees "
         "for the quotient group (n-1 coordinates)", {"box"}),
        ("mackey", cmd_mackey, "full Mackey functor at one degree (oracle)", {"deg", "budget"}),
        ("summands", cmd_summands, "summand family count with audit trail", set()),
        ("oracle", cmd_oracle, "oracle top-level dimension at one degree", {"deg", "budget"}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--n", type=_int_at_least(), required=True,
                       help="group exponent: the group is C_{2^n}")
        if "deg" in needs:
            p.add_argument("--deg", required=True, help='degree "t,cA,cL0,..."')
        if "box" in needs:
            p.add_argument("--box", required=True, help='box "t=-8..8,a=-2..2,l0=-2..2,..."')
        if "budget" in needs:
            p.add_argument("--budget", type=_int_at_least(0), default=reps.DEFAULT_BUDGET,
                           help=f"oracle column cap (default {reps.DEFAULT_BUDGET})")
        p.add_argument("--format", choices=("json", "csv", "table"), default="json")
        p.add_argument("--cache-dir", default=None, help="cache directory (or HF2_CACHE_DIR)")
        p.add_argument("--no-cache", action="store_true")
        if func is cmd_verify:
            p.add_argument("--jobs", type=_int_at_least(1), default=1)
            p.add_argument("--cache-selftest", type=_int_at_least(0), default=0,
                           help="recompute the oracle values of this many cached degrees "
                           "and compare")
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


def _devnull(stream) -> None:
    """Point the file descriptor of a stream whose reader has gone at
    /dev/null, so that no later write or flush at shutdown fails again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _warn(*lines: str) -> None:
    """Print diagnostics to stderr and flush it (with no lines, only the
    flush).  A closed stderr must not change the exit code `main` chose."""
    try:
        for line in lines:
            print(line, file=sys.stderr)
        sys.stderr.flush()
    except OSError:
        _devnull(sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_join_dash_values(argv))
    except SystemExit as exc:
        _warn()  # argparse's usage message
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
        _emit(report, args.format)
        sys.stdout.flush()  # a closed pipe fails here, inside the mapping
    except (UsageError, DegreeError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            _devnull(sys.stdout)
        _warn(f"error: {exc}")
        return EXIT_USAGE
    except BudgetExceededError as exc:  # a one-degree query cannot skip it
        _warn(json.dumps({"error": str(exc)}))
        return EXIT_BUDGET
    except Exception as exc:  # a defect in hf2, never a mismatch
        import traceback

        _warn(f"internal error: {exc!r}", traceback.format_exc().rstrip("\n"))
        return EXIT_INTERNAL
    return report.code


if __name__ == "__main__":
    sys.exit(main())
