import csv
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hf2 import cli, duality, engine, gf2, oracle, reps


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

    def test_largest_n(self, capsys):
        n = engine.MAX_N
        code, out, _ = run_cli(capsys, "dim", "--n", str(n), "--deg", ",".join(["0"] * (n + 1)),
                               "--format", "table")
        assert n == 256 and code == 0 and out.strip() == "1"

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

    def test_inject_fault(self, capsys, monkeypatch):
        fault_at(monkeypatch, "0,0,0")
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--box", self.BOX)
        payload = json.loads(out)
        assert code == 1 and not payload["pass"]
        assert payload["summary"]["mismatches"] == 1

    def test_budget_exit_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--box", "t=-2..-2,a=1..1,l0=2..2",
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
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
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
        args = ("verify", "--n", "2", "--box", "t=-2..-2,a=1..1,l0=2..2",
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
        assert (tmp_path / "hf2-cache-n2.jsonl").exists()

    def test_corruption_recovery(self, capsys, tmp_path):
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
        cache_file.write_text("{ not json\n" + cache_file.read_text().replace('"v": 1', '"v": 9'))
        code, out, _ = run_cli(capsys, *args)
        # the checksum rejects the tampered line, so the value is recomputed
        assert code == 0 and json.loads(out)["records"][0]["oracle"] == 1

    def test_undecodable_line_recomputed(self, capsys, tmp_path):
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
        cache_file.write_bytes(b"\xff\xfe garbage\n" + cache_file.read_bytes() + b"\xff\n")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["records"][0]["oracle"] == 1

    def test_non_integer_value_recomputed(self, capsys, tmp_path):
        args = (*self.ONE_DEGREE, "--cache-dir", str(tmp_path))
        run_cli(capsys, *args)
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
        [key] = [json.loads(line)["k"] for line in cache_file.read_text().splitlines()]
        # each line's checksum is valid; "1" even has the checksum of the int 1
        for value in ("1", True, 1.0, [1]):
            line = {"k": key, "v": value, "h": cli._line_hash(key, value)}
            cache_file.write_text(json.dumps(line) + "\n")
            code, out, _ = run_cli(capsys, *args)
            payload = json.loads(out)
            oracle_value = payload["records"][0]["oracle"]
            assert code == 0 and payload["pass"], value
            assert oracle_value == 1 and type(oracle_value) is int, value

    def test_blank_lines_are_skipped(self, capsys, tmp_path, monkeypatch):
        args = ("verify", "--n", "2", "--box", "t=-1..1,a=0..0", "--cache-dir", str(tmp_path))
        _, cold, _ = run_cli(capsys, *args)
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
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
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
        lines = []
        for line in cache_file.read_text().splitlines():
            rec = json.loads(line)
            if "|oracle|" in rec["k"] and rec["k"].endswith("|0,0,0"):
                rec["v"] += 1  # a wrong value under a valid line checksum
                rec["h"] = cli._line_hash(rec["k"], rec["v"])
            lines.append(json.dumps(rec))
        cache_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, *args)
        summary = json.loads(out)["summary"]
        assert code == 1
        assert summary["mismatches"] == 1 and summary["cache_selftest_failures"] == 1

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
        cache_file = tmp_path / "hf2-cache-n2.jsonl"
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
        cache_file = tmp_path / "cache" / "hf2-cache-n2.jsonl"
        run_cli(capsys, *args)
        n_lines = len(cache_file.read_text().splitlines())
        run_cli(capsys, *args)
        assert len(cache_file.read_text().splitlines()) == n_lines  # warm: pure hits
        edited = tmp_path / "oracle.py"
        edited.write_bytes(open(oracle.__file__, "rb").read() + b"# edited\n")
        monkeypatch.setattr(oracle, "__file__", str(edited))
        monkeypatch.setattr(cli, "_fingerprint", functools.cache(cli._fingerprint.__wrapped__))
        code, out, _ = run_cli(capsys, *args)
        assert code == 0 and json.loads(out)["pass"]
        # the three oracle values miss under the new fingerprint and are stored again
        assert len(cache_file.read_text().splitlines()) == n_lines + 3


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
        monkeypatch.setattr(engine, "part4", engine.positive_cone_basis)
        code, out, err = run_cli(capsys, "basis", "--n", "3", "--deg", "0,0,0,0")
        assert code == 4 and out == ""
        assert "internal error" in err

    def test_divisible_class_in_part2_exit_4(self, capsys, monkeypatch):
        # part (2) offering a part-(4) class trips the second overlap check
        monkeypatch.setattr(
            engine, "_d_lambda1", lambda n, d: ((m, 1) for m in engine.part4(n, d))
        )
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

    def test_deep_recursion_is_not_a_mismatch(self, capsys):
        # exit 1 is reserved for a verified mismatch; past engine.MAX_N the
        # engine refuses n before its recursion can overflow the stack
        code, out, err = run_cli(capsys, "dim", "--n", "400", "--deg", ",".join(["0"] * 401))
        assert code == 2 and out == ""
        assert f"n <= {engine.MAX_N}" in err and "Traceback" not in err


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


def test_import_leaves_out_multiprocessing():
    # only `verify --jobs N` with N > 1 needs it, so start-up does not pay for it
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hf2.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"
