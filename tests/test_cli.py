import csv
import functools
import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from hf2 import cli, duality, engine, gf2, oracle, reps

from fixtures import closed_top_width


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fault_at(monkeypatch, degree: str) -> None:
    """Make `engine.dimension` answer one too many at one degree."""
    real = engine.dimension
    monkeypatch.setattr(
        engine, "dimension", lambda n, d: real(n, d) + (reps.format_degree(d) == degree)
    )


def spy(monkeypatch, owner, name: str) -> list:
    """Record the positional arguments of each call to `owner.name`, which
    still runs."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


def cache_path(directory: Path, n: int = 2) -> Path:
    """The cache file of C_{2^n} in `directory` under this code's fingerprint."""
    return directory / f"hf2-cache-n{n}-{cli._fingerprint()}.jsonl"


def duality_fault(monkeypatch) -> None:
    """Make duality-scan's dimensions answer one too many at 0,0,0 over C_4,
    whose dual degree is -2,0,1."""
    real = duality.dimension
    monkeypatch.setattr(
        duality, "dimension", lambda n, d: real(n, d) + (reps.format_degree(d) == "0,0,0")
    )


def slice_fault(monkeypatch) -> None:
    """Make the engine over C_8 answer as if every degree were 1,-1,0,0 ({uA})."""
    real = engine.basis
    monkeypatch.setattr(
        engine, "basis", lambda n, d: real(n, d if n < 3 else reps.make_degree(3, 1, -1, [0, 0]))
    )


# Every subcommand in every format, with the budget refusals and usage errors:
# argv, exit code, stdout lines ("elapsed_s" masked) and the last stderr line
# (argparse prints its usage block above it).  `fault` names a degree where
# the engine is made to answer wrong.  Recorded before the commands returned
# reports for `main` to print; any difference is a change of a report.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["argv"] for case in GOLDEN])
def test_golden_output(capsys, monkeypatch, case):
    monkeypatch.delenv("HF2_CACHE_DIR", raising=False)
    if case["fault"]:
        fault_at(monkeypatch, case["fault"])
    code, out, err = run_cli(capsys, *case["argv"].split())
    out = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', out)
    assert code == case["code"]
    assert out.splitlines() == case["out"]
    assert "\n".join(err.splitlines()[-1:]) == case["err"]


# Every CSV report, with mismatch rows where a command has them: each row
# must parse back as wide as its header, although degrees hold commas.
CSV_REPORTS = [
    ("dim --n 2 --deg -2,2,-1", None),
    ("basis --n 3 --deg 0,-3,-3,2", None),
    ("oracle --n 2 --deg -2,0,1", None),
    ("mackey --n 3 --deg -3,0,0,2", None),
    ("summands --n 3", None),
    ("verify --n 2 --box t=-1..1,a=0..0,l0=-1..1", None),
    ("verify --n 2 --box t=-1..1,a=0..0,l0=-1..1", lambda mp: fault_at(mp, "-1,0,-1")),
    ("verify --n 2 --box t=-2..-2,a=1..1,l0=1..2 --budget 2", None),
    ("verify --n 2 --box t=-2..-2,a=2..2,l0=-2..-1 --budget 2", None),
    ("duality-scan --n 2 --box t=-1..1,a=0..0", duality_fault),
    ("slice-check --n 3 --box t=0..0,a=0..0", slice_fault),
]


@pytest.mark.parametrize("argv, fault", CSV_REPORTS, ids=[
    f"{argv}{' fault' if fault else ''}" for argv, fault in CSV_REPORTS])
def test_csv_rows_as_wide_as_header(capsys, monkeypatch, argv, fault):
    monkeypatch.delenv("HF2_CACHE_DIR", raising=False)
    if fault:
        fault(monkeypatch)
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "csv")
    rows = list(csv.reader(out.splitlines()))
    assert code in (0, 1, 3) and len(rows) >= 2
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows), rows


class TestDim:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--n", "1", "--deg", "-2,2", "--format", "table")
        assert code == 0 and out.strip() == "1"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "--n", "2", "--deg", "-2,2,-1")
        payload = json.loads(out)
        assert code == 0 and payload["dimension"] == 1

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "dim", "--n", "2", "--deg", "1,2")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("argv", [
        *(pytest.param(("dim", "--n", "1", "--deg", deg), id=deg)
          for deg in ("1_0,0", "\u0663,0", "\uff13,0")),
        *(pytest.param((*base, option, text), id=f"{option}={text}")
          for base, option in ((("dim", "--deg", "0,0"), "--n"),
                               (("oracle", "--n", "1", "--deg", "0,0"), "--budget"),
                               (("verify", "--n", "1", "--box", "t=0..0,a=0..0"), "--jobs"),
                               (("verify", "--n", "1", "--box", "t=0..0,a=0..0"), "--cache-selftest"))
          for text in ("1_0", "\u0663", "\uff13", " 3")),
    ])
    def test_non_ascii_integer_exit_2(self, capsys, argv):
        # int() reads 1_0 as 10, the Arabic-Indic or fullwidth digit as 3 and
        # " 3" as 3; every integer of the CLI is [+-]?[0-9]+ in ASCII
        code, out, err = run_cli(capsys, *argv, "--no-cache")
        assert code == 2 and out == ""
        if argv[-2] == "--deg":
            assert f"non-integer entry in degree string {argv[-1]!r}" in err
        else:
            assert f"argument {argv[-2]}: invalid int value: {argv[-1]!r}" in err

    def test_dim_unbounded(self, capsys):
        # the engine's induction is a loop, so n has no upper bound
        code, out, _ = run_cli(capsys, "dim", "--n", "400", "--deg", ",".join(["0"] * 401),
                               "--format", "table")
        assert code == 0 and out.strip() == "1"

    def test_oracle_and_summands_unbounded(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--n", "400", "--deg", ",".join(["0"] * 401),
                               "--format", "table")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run_cli(capsys, "summands", "--n", "400")
        assert code == 0 and json.loads(out)["total"] == 160798

    @pytest.mark.parametrize("command", ["dim", "basis", "oracle", "mackey"])
    def test_n_below_1_exit_2(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "0", "--deg", "0")
        assert code == 2 and out == "" and err.startswith("error: n: group exponent")


class TestBasis:
    def test_unit(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--n", "2", "--deg", "0,0,0")
        assert code == 0
        assert json.loads(out) == [{"monomial": "1", "part": "POS", "depth": 0}]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "basis", "--n", "2", "--deg", "-2,0,1", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "monomial,part,depth",
            "S * aA * uA^-1 * aL0^-1,P3.B2,0",
        ]

    def test_deterministic(self, capsys):
        args = ("basis", "--n", "3", "--deg", "-4,-1,1,-1")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestVerify:
    BOX = "t=-3..3,a=-1..1,l0=-1..1"
    WIDE = "t=-2..2,a=-1..1,l0=-1..1"

    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--box", self.BOX)
        payload = json.loads(out)
        assert code == 0 and payload["pass"]
        assert payload["summary"] == {
            "total": 63,
            "mismatches": 0,
            "skipped": 0,
            "cache_selftest_failures": 0,
        }

    @pytest.mark.parametrize("n", [300, pytest.param(512, marks=pytest.mark.slow)])
    def test_large_n(self, capsys, n):
        # the engine has no bound on n: 135 degrees that reach the first and
        # the last lambda slot, 44 of them nonzero
        box = f"t=-3..1,a=-1..1,l0=-1..1,l{n - 2}=-1..1"
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--box", box, "--no-cache")
        payload = json.loads(out)
        assert code == 0 and payload["summary"]["mismatches"] == 0
        assert payload["summary"]["total"] == 135 and payload["summary"]["skipped"] == 0
        assert sum(r["engine"] > 0 for r in payload["records"]) == 44

    @pytest.mark.slow
    def test_n512_five_slot_box(self, capsys):
        # 405 degrees through the first, a middle and the last lambda slot,
        # whose oracle once ran out of memory on moves that cancel; 60 are
        # over the default budget
        box = "t=-3..1,a=-1..1,l0=-1..1,l255=-1..1,l510=-1..1"
        code, out, _ = run_cli(capsys, "verify", "--n", "512", "--box", box, "--no-cache")
        payload = json.loads(out)
        assert code == 3
        assert payload["summary"] == {
            "total": 405, "mismatches": 0, "skipped": 60, "cache_selftest_failures": 0,
        }

    def test_inject_fault(self, capsys, monkeypatch):
        fault_at(monkeypatch, "0,0,0")
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--box", self.BOX)
        payload = json.loads(out)
        assert code == 1 and not payload["pass"]
        assert payload["summary"]["mismatches"] == 1

    def test_budget_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--box", "t=-2..-2,a=2..2,l0=-1..-1",
            "--budget", "2",
        )
        payload = json.loads(out)
        assert code == 3
        assert payload["summary"]["skipped"] == 1
        assert "budget" in payload["records"][0]["skipped"]

    def test_jobs(self, capsys):
        # 45 degrees are three chunks, so --jobs 2 runs a real 2-worker pool
        reports = []
        for jobs in ("2", "1"):
            code, out, _ = run_cli(capsys, "verify", "--n", "2", "--box", self.WIDE,
                                   "--no-cache", "--jobs", jobs)
            assert code == 0
            reports.append(json.loads(out))
            reports[-1].pop("meta")
        assert reports[0] == reports[1] and reports[0]["pass"]

    @pytest.mark.parametrize("box, pools", [("t=-1..1,a=0..0,l0=-1..1", []), (WIDE, [3])])
    def test_jobs_sizes_pool_from_box(self, capsys, monkeypatch, box, pools):
        made = []

        class SerialPool:
            def __init__(self, processes):
                made.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks, chunksize):
                return list(map(func, tasks))

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        code, _, _ = run_cli(capsys, "verify", "--n", "2", "--box", box, "--no-cache",
                             "--jobs", "64")
        assert code == 0 and made == pools

    def test_determinism_modulo_meta(self, capsys):
        args = ("verify", "--n", "2", "--box", "t=-2..2,a=-1..1,l0=0..0")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("meta"), p2.pop("meta")
        assert p1 == p2

    def test_bad_box_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--box", "t=1..0,a=0..0")
        assert code == 2

    def test_non_ascii_box_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--box", "t=\u0663..\u0663,a=0..0")
        assert code == 2 and out == "" and "bad box item" in err

    @pytest.mark.parametrize(
        "option",
        [("--cache-selftest", "-1"), ("--jobs", "-3"), ("--jobs", "0"), ("--budget", "-1")],
    )
    def test_out_of_range_option_exit_2(self, capsys, tmp_path, option):
        code, out, err = run_cli(
            capsys, "verify", "--n", "2", "--box", "t=0..0,a=0..0",
            "--cache-dir", str(tmp_path), *option,
        )
        assert code == 2 and out == "" and option[0] in err

    def test_repeated_box_key_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--box", "t=0..0,a=0..0,t=3..3")
        assert code == 2 and out == "" and "repeats" in err

    def test_box_order_is_lexicographic(self):
        box = cli.parse_box("t=0..1,a=-1..0,l1=2..3", 3)
        coords = [(d.t, d.c_alpha, *d.c_lambda) for d in box]
        assert coords == sorted(coords) and len(coords) == 8

    @pytest.mark.parametrize("n, text, described, first", [
        (1, "t=0..1,a=0..0", "t=0..1,a=0..0", ["0,0", "1,0"]),
        (4, "a=-1..0,t=2..2,l2=1..2", "t=2..2,a=-1..0,l0=0..0,l1=0..0,l2=1..2",
         ["2,-1,0,0,1", "2,-1,0,0,2"]),
    ])
    def test_box_slots(self, n, text, described, first):
        box = cli.parse_box(text, n)
        assert box.describe() == described
        assert [reps.format_degree(d) for d in box][:2] == first

    @pytest.mark.parametrize("n, text, message", [
        (1, "t=0..1,a=0..0,l0=0..0", "lambda slot l0 out of range for n=1"),
        (3, "t=0..0,a=0..0,l01=0..1,l1=0..0", "box item 'l1=0..0' repeats a coordinate"),
        (2, "t=0..1,l0=0..0", "box must give t=lo..hi and a=lo..hi"),
        # ASCII digits only: \d would take other scripts' digits
        (2, "t=\u0663..\u0663,a=0..0", "bad box item 't=\u0663..\u0663'; expected like t=-8..8"),
        (2, "t=0..0,a=0..0,l\u0660=0..0", "bad box item 'l\u0660=0..0'; expected like t=-8..8"),
        (2, "t=1_0..1_0,a=0..0", "bad box item 't=1_0..1_0'; expected like t=-8..8"),
    ])
    def test_box_refused(self, n, text, message):
        with pytest.raises(cli.UsageError) as err:
            cli.parse_box(text, n)
        assert str(err.value) == message


class TestCache:
    def test_roundtrip_and_selftest(self, capsys, tmp_path):
        args = (
            "verify", "--n", "2", "--box", "t=-2..2,a=-1..1,l0=-1..1",
            "--cache-dir", str(tmp_path), "--cache-selftest", "5",
        )
        code1, out1, _ = run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        assert code1 == 0 and cache_file.exists()
        n_lines = len(cache_file.read_text().splitlines())
        code2, out2, _ = run_cli(capsys, *args)
        assert code2 == 0
        assert len(cache_file.read_text().splitlines()) == n_lines  # pure hits
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("meta"), p2.pop("meta")
        assert p1 == p2

    def test_cached_values_obey_budget(self, capsys, tmp_path):
        # a default-budget run fills the cache; a tight budget still refuses
        args = ("verify", "--n", "2", "--box", "t=-2..-2,a=2..2,l0=-1..-1",
                "--cache-dir", str(tmp_path))
        runs = [run_cli(capsys, *args, *extra) for extra in (("--budget", "2"), (), ("--budget", "2"))]
        assert [code for code, _, _ in runs] == [3, 0, 3]
        cold, warm = json.loads(runs[0][1]), json.loads(runs[2][1])
        cold.pop("meta"), warm.pop("meta")
        assert warm == cold

    ONE_DEGREE = ("verify", "--n", "2", "--box", "t=0..0,a=0..0,l0=0..0")

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HF2_CACHE_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, *self.ONE_DEGREE)
        assert code == 0 and json.loads(out)["records"][0]["oracle"] == 1
        assert cache_path(tmp_path).exists()

    def test_corruption_recovery(self, capsys, tmp_path):
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        cache_file.write_text("{ not json\n" + cache_file.read_text().replace('"v": 1', '"v": 9'))
        code, out, _ = run_cli(capsys, *args)
        # the checksum rejects the tampered line, so the value is recomputed
        assert code == 0 and json.loads(out)["records"][0]["oracle"] == 1

    def test_undecodable_line_recomputed(self, capsys, tmp_path):
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        cache_file.write_bytes(b"\xff\xfe garbage\n" + cache_file.read_bytes() + b"\xff\n")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["records"][0]["oracle"] == 1

    def test_non_integer_value_recomputed(self, capsys, tmp_path, monkeypatch):
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        [rec] = [json.loads(line) for line in cache_file.read_text().splitlines()]
        key, width = rec["k"], rec["w"]
        assert (rec["v"], width) == (1, closed_top_width(2, reps.zero_degree(2)))
        computed = spy(monkeypatch, cli, "_oracle_value")
        # each line's checksum is valid; "1" even has the checksum of the int 1
        cases = [(v, width) for v in ("1", True, 1.0, [1])]
        cases += [(1, w) for w in (str(width), True, float(width), None, [width])]
        for value, w in cases:
            line = {"k": key, "v": value, "w": w, "h": cli._line_hash(key, value, w)}
            cache_file.write_text(json.dumps(line) + "\n")
            code, out, _ = run_cli(capsys, *args)
            payload = json.loads(out)
            oracle_value = payload["records"][0]["oracle"]
            assert code == 0 and payload["pass"], (value, w)
            assert oracle_value == 1 and type(oracle_value) is int, (value, w)
        assert len(computed) == len(cases)  # no such line was trusted

    def test_line_without_width_recomputed(self, capsys, tmp_path, monkeypatch):
        # a line of the format before widths were stored, checksummed as then
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        [rec] = [json.loads(line) for line in cache_file.read_text().splitlines()]
        old = hashlib.sha1(f"{rec['k']}=1".encode()).hexdigest()[:12]
        cache_file.write_text(json.dumps({"k": rec["k"], "v": 1, "h": old}) + "\n")
        computed = spy(monkeypatch, cli, "_oracle_value")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["records"][0]["oracle"] == 1
        assert len(computed) == 1 and len(cache_file.read_text().splitlines()) == 2

    def test_blank_lines_are_skipped(self, capsys, tmp_path, monkeypatch):
        args = ("verify", "--n", "2", "--box", "t=-1..1,a=0..0", "--cache-dir", str(tmp_path))
        _, cold, _ = run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        spaced = "\n\n".join(cache_file.read_text().splitlines()) + "\n  \n"
        cache_file.write_text(spaced)

        def refuse(*_):
            raise AssertionError("a cached value was recomputed")

        monkeypatch.setattr(oracle, "oracle_top_dim", refuse)
        code, warm, _ = run_cli(capsys, *args)
        assert code == 0 and cache_file.read_text() == spaced  # every value hit
        cold, warm = json.loads(cold), json.loads(warm)
        cold.pop("meta"), warm.pop("meta")
        assert warm == cold

    def test_selftest_rechecks_oracle(self, capsys, tmp_path):
        args = (
            "verify", "--n", "2", "--box", "t=-1..1,a=0..0,l0=0..0",
            "--cache-dir", str(tmp_path), "--cache-selftest", "3",
        )
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        lines = []
        for line in cache_file.read_text().splitlines():
            rec = json.loads(line)
            if rec["k"] == "0,0,0":
                rec["v"] += 1  # a wrong value under a valid line checksum
                rec["h"] = cli._line_hash(rec["k"], rec["v"], rec["w"])
            lines.append(json.dumps(rec))
        cache_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, *args)
        summary = json.loads(out)["summary"]
        assert code == 1
        assert summary["mismatches"] == 1 and summary["cache_selftest_failures"] == 1

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_selftest_rechecks_width(self, capsys, tmp_path, shift):
        # a stale width would move the budget's line for a hit, so the
        # re-check compares it too, though the value itself is right
        args = (
            "verify", "--n", "2", "--box", "t=-1..1,a=0..0,l0=0..0",
            "--cache-dir", str(tmp_path), "--cache-selftest", "3",
        )
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        lines = []
        for line in cache_file.read_text().splitlines():
            rec = json.loads(line)
            if rec["k"] == "0,0,0":
                assert rec["w"] > 0
                rec["w"] += shift
                rec["h"] = cli._line_hash(rec["k"], rec["v"], rec["w"])
            lines.append(json.dumps(rec))
        cache_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, *args)
        payload = json.loads(out)
        assert code == 1 and not payload["pass"]
        assert payload["summary"] == {
            "total": 3, "mismatches": 0, "skipped": 0, "cache_selftest_failures": 1}

    def test_selftest_counts_a_refused_hit(self, capsys, tmp_path):
        # a stale width of 1 lets the hit round a budget of 2 that the true
        # width, 3, is over; the value itself is right, so only the re-check,
        # which the budget refuses, can see it
        key, args = "-2,2,-1", ("verify", "--n", "2", "--box", "t=-2..-2,a=2..2,l0=-1..-1",
                                "--budget", "2")
        code, out, _ = run_cli(capsys, *args, "--no-cache")
        assert code == 3 and json.loads(out)["summary"]["skipped"] == 1
        line = {"k": key, "v": 1, "w": 1, "h": cli._line_hash(key, 1, 1)}
        cache_path(tmp_path).write_text(json.dumps(line) + "\n")
        code, out, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path), "--cache-selftest", "1")
        payload = json.loads(out)
        assert code == 1 and not payload["pass"]
        assert payload["summary"] == {
            "total": 1, "mismatches": 0, "skipped": 0, "cache_selftest_failures": 1}

    def test_stale_lines_are_not_decoded(self, capsys, tmp_path, monkeypatch):
        # lines of another fingerprint can never hit: their file is not opened
        args = ("verify", "--n", "2", "--box", "t=-1..1,a=0..0,l0=0..0",
                "--cache-dir", str(tmp_path))
        _, cold, _ = run_cli(capsys, *args)
        stale_file = tmp_path / "hf2-cache-n2-0123456789ab.jsonl"
        assert stale_file != cache_path(tmp_path)
        stale = []
        for i in range(1000):
            key = f"0,0,{i}"  # "0,0,0" among them, with a wrong value
            stale.append(json.dumps({"k": key, "v": 9, "w": 1, "h": cli._line_hash(key, 9, 1)}))
        stale_file.write_text("\n".join(stale) + "\n")
        opened = []

        def logged_open(path, *rest, **kw):  # `open` as hf2.cli sees it
            opened.append(path)
            return open(path, *rest, **kw)

        monkeypatch.setattr(cli, "open", logged_open, raising=False)
        monkeypatch.setattr(cli, "_oracle_value", None)  # a recomputation would fail
        code, warm, _ = run_cli(capsys, *args)
        assert opened == [str(cache_path(tmp_path))]
        cold, warm = json.loads(cold), json.loads(warm)
        cold.pop("meta"), warm.pop("meta")
        assert code == 0 and warm == cold

    def test_selftest_without_cache_exit_2(self, capsys, tmp_path, monkeypatch):
        # a re-check that cannot run must not report a pass
        monkeypatch.delenv("HF2_CACHE_DIR", raising=False)
        args = ("verify", "--n", "2", "--box", "t=-1..1,a=0..0", "--cache-selftest", "3")
        for extra in ((), ("--cache-dir", str(tmp_path), "--no-cache")):
            code, out, err = run_cli(capsys, *args, *extra)
            assert code == 2 and out == "" and "--cache-selftest" in err
        assert not any(tmp_path.iterdir())

    def test_one_write_per_run(self, capsys, tmp_path, monkeypatch):
        puts = []
        real = cli.JsonlCache.put

        def put(self, values):
            puts.append(len(values))
            real(self, values)

        monkeypatch.setattr(cli.JsonlCache, "put", put)
        args = ("verify", "--n", "2", "--box", "t=-1..1,a=0..0,l0=-1..1",
                "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = cache_path(tmp_path)
        assert puts == [9] and len(cache_file.read_text().splitlines()) == 9
        run_cli(capsys, *args)
        assert puts == [9]  # warm: nothing new, no write

    def test_unwritable_cache_exit_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(capsys, *self.ONE_DEGREE, "--cache-dir", str(blocker / "sub"))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_code_change_misses(self, capsys, tmp_path, monkeypatch):
        args = (
            "verify", "--n", "2", "--box", "t=-1..1,a=0..0,l0=0..0",
            "--cache-dir", str(tmp_path / "cache"),
        )
        old_file = cache_path(tmp_path / "cache")
        run_cli(capsys, *args)
        before = old_file.read_bytes()
        run_cli(capsys, *args)
        assert old_file.read_bytes() == before  # warm: pure hits
        # the same sources beside another cli.py, with an edit to oracle.py
        src = tmp_path / "src"
        src.mkdir()
        for module in (oracle, gf2, reps):
            text = Path(module.__file__).read_bytes()
            (src / Path(module.__file__).name).write_bytes(
                text + b"# edited\n" if module is oracle else text)
        monkeypatch.setattr(cli, "__file__", str(src / "cli.py"))
        monkeypatch.setattr(cli, "_fingerprint", functools.cache(cli._fingerprint.__wrapped__))
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["pass"]
        # the three oracle values miss under the new fingerprint and go to
        # its own file; the old file is left as it was
        new_file = cache_path(tmp_path / "cache")
        assert sorted((tmp_path / "cache").iterdir()) == sorted([old_file, new_file])
        assert old_file.read_bytes() == before
        assert len(new_file.read_text().splitlines()) == 3

    def test_fingerprint_covers_the_oracles_imports(self):
        # the hf2 modules hf2.oracle imports: those it binds, and those of
        # the names it binds; each decides oracle values, so each is hashed
        bound = vars(oracle).values()
        names = {v.__name__ for v in bound if isinstance(v, types.ModuleType)}
        names |= {getattr(v, "__module__", None) for v in bound}
        imported = {sys.modules[name] for name in names if str(name).startswith("hf2.")}
        assert {gf2, reps} <= imported
        hashed = [Path(path).resolve() for path in cli._oracle_sources()]
        assert {Path(m.__file__).resolve() for m in imported | {oracle}} <= set(hashed)
        h = hashlib.sha1()
        for path in hashed:
            h.update(path.read_bytes())
        assert cli._fingerprint() == h.hexdigest()[:12]

    def test_line_hash_is_sha1(self, monkeypatch):
        # the built-in SHA-1 digests as hashlib's does: 48 bits of it
        key = "0,0,0"
        expected = hashlib.sha1(f"{key}=1:3".encode()).hexdigest()[:12]
        assert cli._line_hash(key, 1, 3) == expected
        # an interpreter built without `_sha1` takes hashlib's
        monkeypatch.setitem(sys.modules, "_sha1", None)
        cli._sha1.cache_clear()
        try:
            assert cli._sha1() is hashlib.sha1 and cli._line_hash(key, 1, 3) == expected
        finally:
            cli._sha1.cache_clear()


class TestOracleCache:
    DEG = ("oracle", "--n", "2", "--deg=0,0,0")

    def test_miss_writes_one_line_and_hit_answers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("HF2_CACHE_DIR", raising=False)
        _, plain, _ = run_cli(capsys, *self.DEG, "--no-cache")
        code, cold, _ = run_cli(capsys, *self.DEG, "--cache-dir", str(tmp_path))
        cache_file = cache_path(tmp_path)
        [line] = cache_file.read_text().splitlines()
        rec = json.loads(line)
        assert code == 0 and cold == plain
        assert (rec["v"], rec["w"]) == (json.loads(plain)["oracle_dimension"],
                                        closed_top_width(2, reps.zero_degree(2)))
        monkeypatch.setattr(cli, "_oracle_value", None)  # a hit must not compute
        monkeypatch.setenv("HF2_CACHE_DIR", str(tmp_path))
        code, warm, _ = run_cli(capsys, *self.DEG)
        assert code == 0 and warm == plain
        assert cache_file.read_text() == line + "\n"

    def test_reads_what_verify_wrote(self, capsys, tmp_path, monkeypatch):
        run_cli(capsys, "verify", "--n", "2", "--box", "t=-1..1,a=0..0,l0=-1..1",
                "--cache-dir", str(tmp_path))
        cache_file = cache_path(tmp_path)
        before = cache_file.read_text()
        assert len(before.splitlines()) == 9
        decoded = spy(monkeypatch, json, "loads")
        monkeypatch.setattr(cli, "_oracle_value", None)
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--deg=1,0,-1",
                               "--cache-dir", str(tmp_path))
        [(line,)] = decoded  # only the one line that holds the key is decoded
        assert json.loads(line)["k"] == "1,0,-1"
        assert code == 0 and json.loads(out)["oracle_dimension"] == 1
        assert cache_file.read_text() == before

    def test_verify_stores_each_value_and_width(self, capsys, tmp_path):
        # the width stored with each answer is the degree's budget width
        box = "t=-2..0,a=-1..1,l0=-1..1,l1=-1..1"
        code, _, _ = run_cli(capsys, "verify", "--n", "3", "--box", box,
                             "--cache-dir", str(tmp_path))
        degrees = {reps.format_degree(d): d for d in cli.parse_box(box, 3)}
        lines = [json.loads(line) for line in cache_path(tmp_path, 3).read_text().splitlines()]
        assert code == 0 and sorted(rec["k"] for rec in lines) == sorted(degrees)
        for rec in lines:
            d = degrees[rec["k"]]
            assert (rec["v"], rec["w"]) == (oracle.oracle_top_dim(3, d),
                                            closed_top_width(3, d)), rec["k"]
        widths = {rec["w"] for rec in lines}
        assert 0 in widths and max(widths) > 1, widths

    def test_last_valid_line_wins(self, tmp_path):
        key = "0,0,0"
        lines = [json.dumps({"k": key, "v": v, "w": w, "h": cli._line_hash(key, v, w)})
                 for v, w in ((5, 6), (7, 8))]
        (cache_path(tmp_path)).write_text("\n".join(lines + ["{ broken"]) + "\n")
        for only in (None, key):
            assert cli.JsonlCache(str(tmp_path), 2, only).get(key) == (7, 8)

    def test_any_spelling_of_a_degree_hits(self, capsys, tmp_path, monkeypatch):
        # the key is the degree's canonical text, not the --deg text
        run_cli(capsys, *self.DEG, "--cache-dir", str(tmp_path))
        monkeypatch.setattr(cli, "_oracle_value", None)
        code, out, _ = run_cli(capsys, "oracle", "--n", "2", "--deg", " -0, 0,+0",
                               "--cache-dir", str(tmp_path))
        assert code == 0 and json.loads(out) == {"n": 2, "degree": "0,0,0", "oracle_dimension": 1}
        assert len(cache_path(tmp_path).read_text().splitlines()) == 1

    def test_recomputed_entry_replaces_a_stale_width(self, capsys, tmp_path, monkeypatch):
        # a width too wide for the budget sends the degree to the oracle;
        # the fresh entry is appended, and as the last line it hits from then on
        key, width = "0,0,0", closed_top_width(2, reps.zero_degree(2))
        lines = [json.dumps({"k": key, "v": 1, "w": w, "h": cli._line_hash(key, 1, w)})
                 for w in (width + 5, width)]
        cache_file = cache_path(tmp_path)
        cache_file.write_text(lines[0] + "\n")
        args = (*self.DEG, "--budget", str(width), "--cache-dir", str(tmp_path))
        assert run_cli(capsys, *args)[0] == 0
        assert cache_file.read_text().splitlines() == lines
        monkeypatch.setattr(cli, "_oracle_value", None)
        assert run_cli(capsys, *args)[0] == 0

    def test_over_budget_hit_refuses_as_cold(self, capsys, tmp_path):
        deg = ("oracle", "--n", "2", "--deg=-2,1,2")
        width = closed_top_width(2, reps.make_degree(2, -2, 1, [2]))
        tight = ("--budget", str(width - 1))
        cold = run_cli(capsys, *deg, *tight, "--no-cache")
        code, _, _ = run_cli(capsys, *deg, "--cache-dir", str(tmp_path))
        assert code == 0 and (cache_path(tmp_path)).exists()
        warm = run_cli(capsys, *deg, *tight, "--cache-dir", str(tmp_path))
        assert cold[0] == cli.EXIT_BUDGET and warm == cold
        assert f"predicted matrix dimension {width} exceeds budget {width - 1}" in cold[2]
        assert run_cli(capsys, *deg, "--budget", str(width), "--cache-dir", str(tmp_path))[0] == 0

    def test_no_cache_neither_reads_nor_writes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HF2_CACHE_DIR", str(tmp_path))
        key = "0,0,0"
        width = closed_top_width(2, reps.zero_degree(2))
        wrong = json.dumps({"k": key, "v": 9, "w": width, "h": cli._line_hash(key, 9, width)})
        cache_file = cache_path(tmp_path)
        cache_file.write_text(wrong + "\n")
        code, out, _ = run_cli(capsys, *self.DEG, "--no-cache")
        assert code == 0 and json.loads(out)["oracle_dimension"] == 1
        assert cache_file.read_text() == wrong + "\n"
        # with the cache, the planted line answers: it was read only now
        code, out, _ = run_cli(capsys, *self.DEG)
        assert code == 0 and json.loads(out)["oracle_dimension"] == 9


class TestOtherCommands:
    def test_mackey_tower(self, capsys):
        code, out, _ = run_cli(capsys, "mackey", "--n", "3", "--deg", "-3,0,0,2")
        payload = json.loads(out)
        assert code == 0
        assert [lv["dim"] for lv in payload["levels"]] == [0, 0, 1, 1]
        assert payload["res"][2] == ["1"] and payload["tr"][2] == ["0"]

    def test_mackey_empty_degree(self, capsys):
        # s = -11 is below every cell of this n = 5 model: every group is 0, and
        # no slice is built, so the 32768-cell degree s+1 is never refused
        code, out, _ = run_cli(capsys, "mackey", "--n", "5", "--deg", "11,-2,-1,-1,-1,-1")
        payload = json.loads(out)
        assert code == 0
        assert [lv["dim"] for lv in payload["levels"]] == [0] * 6
        assert payload["res"] == payload["tr"] == [[]] * 5 and payload["gamma"] == [[]] * 6

    def test_summands(self, capsys):
        code, out, _ = run_cli(capsys, "summands", "--n", "3")
        payload = json.loads(out)
        assert code == 0 and payload["total"] == 13

    @pytest.mark.parametrize("command", ["dim", "oracle", "mackey"])
    @pytest.mark.parametrize("deg", ["-0,0,+0", " 0, 0,0", "00,0 ,0"])
    def test_degree_reported_canonical(self, capsys, monkeypatch, command, deg):
        monkeypatch.delenv("HF2_CACHE_DIR", raising=False)
        code, out, _ = run_cli(capsys, command, "--n", "2", "--deg", deg)
        assert code == 0 and json.loads(out)["degree"] == "0,0,0"

    def test_oracle_cmd(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--n", "2", "--deg", "-2,0,1", "--format", "table"
        )
        assert code == 0 and out.strip() == "1"

    def test_duality_scan_cmd(self, capsys):
        code, out, _ = run_cli(
            capsys, "duality-scan", "--n", "2", "--box", "t=-4..4,a=-2..2,l0=-2..2"
        )
        assert code == 0 and json.loads(out)["pass"]

    def test_slice_check_cmd(self, capsys):
        code, out, _ = run_cli(
            capsys, "slice-check", "--n", "3", "--box", "t=-3..3,a=-1..1,l0=-1..1"
        )
        assert code == 0 and json.loads(out)["pass"]

    def test_duality_scan_mismatch_exit_1(self, capsys, monkeypatch):
        duality_fault(monkeypatch)
        code, out, _ = run_cli(capsys, "duality-scan", "--n", "2", "--box", "t=-1..1,a=0..0")
        payload = json.loads(out)
        assert code == 1 and not payload["pass"] and payload["checked"] == 3
        assert payload["mismatches"] == [
            {"degree": "0,0,0", "dual": "-2,0,1", "dim": 2, "dual_dim": 1}
        ]

    def test_slice_check_mismatch_exit_1(self, capsys, monkeypatch):
        slice_fault(monkeypatch)
        code, out, _ = run_cli(capsys, "slice-check", "--n", "3", "--box", "t=0..0,a=0..0")
        payload = json.loads(out)
        assert code == 1 and not payload["pass"] and payload["checked"] == 1
        assert payload["mismatches"] == [
            {"low_degree": "0,0,0", "missing_above": ["1"], "extra_above": ["uA"]}
        ]

    def test_slice_check_needs_n2(self, capsys):
        code, _, _ = run_cli(capsys, "slice-check", "--n", "1", "--box", "t=0..0,a=0..0")
        assert code == 2


class TestInternalFault:
    def test_not_a_cocycle_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(gf2.Span, "express", lambda self, v: None)
        code, out, err = run_cli(capsys, "mackey", "--n", "3", "--deg", "-3,0,0,2")
        assert code == 4 and out == ""
        assert "internal error" in err and "not a cocycle" in err

    def test_part_overlap_exit_4(self, capsys, monkeypatch):
        # part (4) offering the positive cone trips the first overlap check;
        # a fresh memo keeps the faulty entries from outliving the test
        monkeypatch.setattr(engine, "_QUOTIENTS", engine._Memo())
        monkeypatch.setattr(
            engine, "_windows", lambda n, d: ((), tuple(engine.positive_cone_basis(n, d)))
        )
        code, out, err = run_cli(capsys, "basis", "--n", "3", "--deg", "0,0,0,0")
        assert code == 4 and out == ""
        assert "internal error" in err

    def test_divisible_class_in_part2_exit_4(self, capsys, monkeypatch):
        # part (2) offering a part-(4) class trips the second overlap check
        blocks = engine._blocks
        monkeypatch.setattr(engine, "_QUOTIENTS", engine._Memo())
        monkeypatch.setattr(engine, "_blocks", lambda n, d, pos=False: (
            blocks(n, d, pos)[0], tuple((m, 1) for m in engine.part4(n, d))))
        code, out, err = run_cli(capsys, "basis", "--n", "3", "--deg", "0,-3,-3,2")
        assert code == 4 and out == ""
        assert "is divisible yet tagged P4" in err

    def test_reducer_shape_exit_4(self, capsys, monkeypatch):
        # the oracle builds both differentials itself, so a wrong shape is
        # its own defect, not a usage error
        real = oracle._LevelSlice.cols
        monkeypatch.setattr(oracle._LevelSlice, "cols", lambda self, deg: (
            real(self, deg)[:-1] if deg == self.s else real(self, deg)))
        code, out, err = run_cli(capsys, "mackey", "--n", "3", "--deg", "-3,0,0,2")
        assert code == 4 and out == ""
        assert "internal error" in err and "one column per basis vector" in err

    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        def broken(n, d):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "dimension", broken)
        code, out, err = run_cli(capsys, "dim", "--n", "2", "--deg", "0,0,0")
        assert code == 4 and out == ""
        assert err.startswith("internal error: ") and "boom" in err and "Traceback" in err

    @pytest.mark.parametrize("module, argv", [
        ("engine", ["dim", "--n", "1", "--deg", "0,0"]),
        ("oracle", ["oracle", "--n", "1", "--deg", "0,0", "--no-cache"]),
    ])
    def test_failed_import_exit_4(self, module, argv):
        # in a fresh process, where the submodule is not yet bound on the
        # package, so its import fails inside the command; the handler must
        # not import it again on the way out
        code = (f"import sys; sys.modules['hf2.{module}'] = None\n"
                f"from hf2 import cli; sys.exit(cli.main({argv!r}))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith("internal error:"), proc.stderr
        assert "During handling of the above exception" not in proc.stderr


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "hf2.cli", "dim", "--n", "1", "--deg", "0,0", "--format", "table"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "1"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_pipe_exit_2(unbuffered):
    # `hf2 ... | head`: stdout's reader is gone before the report is written;
    # unbuffered, print fails, buffered, the flush does
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hf2.cli", "dim", "--n", "1", "--deg", "0,0"],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(w)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert "Broken pipe" in proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("stdout_closed", [True, False], ids=["with-stdout", "alone"])
@pytest.mark.parametrize("argv,codes", [
    (["dim", "--n", "1", "--deg", "0,0"], (2, 0)),
    (["oracle", "--n", "2", "--deg=0,0,0", "--budget", "0"], (3, 3)),
    (["dim", "--n", "2", "--deg", "1,2"], (2, 2)),
    (["nosuch"], (2, 2)),
], ids=["dim", "oracle-budget", "bad-deg", "unknown-command"])
def test_closed_stderr_keeps_exit_code(argv, codes, stdout_closed, unbuffered):
    # `hf2 ... 2>&1 | head`: stderr's reader is gone, alone or with stdout's,
    # so the diagnostic fails too; the exit code must stay the one chosen,
    # never 1 (a mismatch) or 120 (a failed flush at shutdown)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "hf2.cli", *argv],
                              stdout=w if stdout_closed else subprocess.DEVNULL, stderr=w, env=env)
    finally:
        os.close(w)
    assert proc.returncode == codes[not stdout_closed]


CACHE = "<cache>"  # a cache directory, warmed by one run of the same command


@pytest.mark.parametrize("command, present, absent", [
    (["-c", "import hf2"], ["hf2"], [f"hf2.{m}" for m in (
        "cli", "duality", "engine", "gf2", "monomial", "oracle", "reps", "tate")]),
    # only `verify --jobs N` with N > 1 needs multiprocessing
    (["-c", "import hf2.cli"], ["hf2.cli", "hf2.reps"],
     ["hf2.engine", "hf2.oracle", "hashlib", "multiprocessing"]),
    (["-m", "hf2.cli", "dim", "--n", "3", "--deg=-1,0,1,-1"], ["hf2.engine"],
     ["hf2.oracle", "hf2.duality", "hashlib", "multiprocessing"]),
    (["-m", "hf2.cli", "oracle", "--n", "3", "--deg=-1,0,1,-1"], ["hf2.oracle"],
     ["hf2.engine", "hf2.monomial", "hf2.tate", "hf2.duality", "hashlib", "multiprocessing"]),
    # the help names the default budget, which lives in hf2.reps
    (["-m", "hf2.cli", "verify", "--help"], ["hf2.reps"], ["hf2.oracle", "hf2.gf2", "hf2.engine"]),
    # a cache hit is answered and budget-checked from its line: no oracle,
    # and SHA-1 from the built-in _sha1, not OpenSSL's through hashlib
    (["-m", "hf2.cli", "verify", "--n", "3", "--box=t=-1..1,a=0..0,l0=-1..1,l1=-1..0",
      "--cache-dir", CACHE], ["hf2.engine", "_sha1"],
     ["hf2.oracle", "hf2.gf2", "hashlib", "_hashlib", "multiprocessing"]),
    (["-m", "hf2.cli", "oracle", "--n", "3", "--deg=-1,0,1,-1", "--cache-dir", CACHE],
     ["hf2.reps", "_sha1"], ["hf2.oracle", "hf2.gf2", "hf2.engine", "hashlib", "_hashlib"]),
], ids=["import-hf2", "import-cli", "dim", "oracle", "verify-help", "verify-warm",
        "oracle-cached"])
def test_process_imports_only_what_it_runs(tmp_path, command, present, absent):
    # a one-shot query compiles its own modules and no others; present shows
    # that the import log sees the modules a process loads on demand
    command = [str(tmp_path) if arg == CACHE else arg for arg in command]
    if str(tmp_path) in command:
        subprocess.run([sys.executable, *command], capture_output=True, check=True)
        assert any(tmp_path.iterdir())
    proc = subprocess.run([sys.executable, "-X", "importtime", *command],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert loaded >= set(present)
    assert not loaded & set(absent)


@pytest.mark.parametrize("command", ["oracle", "mackey", "verify"])
def test_budget_help_reads_default(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0 and f"default {oracle.DEFAULT_BUDGET})" in out
