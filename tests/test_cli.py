"""Command-line interface: outputs, formats, exit codes, artifacts."""

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tnspec import cli
from tnspec.cli import build_parser, run
from tnspec.oracle import TABLE_MAX_N, clear_caches, enumerate_partitions, spectrum
from tnspec.partitions import MAX_FORMULA_N
from tnspec.segments import linear_segment_cover, quadratic_segment_bounds


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEig:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, ["eig", "4", "1", "1"])
        assert code == 0
        assert out == "3\n"

    def test_rectangle(self, capsys):
        code, out, _ = invoke(capsys, ["eig", "3", "3"])
        assert code == 0
        assert out == "3\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, ["eig", "--format", "json", "4", "1", "1"])
        assert code == 0
        assert json.loads(out) == {"eigenvalue": 3, "partition": [4, 1, 1]}

    def test_rejects_unsorted_parts(self, capsys):
        code, out, err = invoke(capsys, ["eig", "3", "4"])
        assert code == 1
        assert out == ""
        assert "nonincreasing" in err

    def test_missing_args_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, ["eig"])
        assert code == 2
        assert "usage" in err


class TestConj:
    def test_text(self, capsys):
        code, out, _ = invoke(
            capsys, ["conj", "5", "4", "4", "2", "2", "2", "1", "1"]
        )
        assert code == 0
        assert out == "8 6 3 3 1\n"

    def test_size_bound(self, capsys):
        # the same bound as eig: no 10^5-part conjugate is ever built
        for command in ("conj", "eig"):
            start = time.perf_counter()
            code, out, err = invoke(capsys, [command, "100001"])
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (1, ""), command
            assert "100000" in err, command


class TestSpectrum:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, ["spectrum", "4"])
        assert code == 0
        assert out == "-6 -2 0 2 6\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, ["spectrum", "4", "--format", "json"])
        assert json.loads(out) == {"n": 4, "values": [-6, -2, 0, 2, 6]}

    def test_witnesses_flag(self, capsys):
        code, out, _ = invoke(
            capsys, ["spectrum", "4", "--format", "json", "--witnesses"]
        )
        payload = json.loads(out)
        assert payload["witnesses"]["6"] == [4]
        assert payload["witnesses"]["0"] == [2, 2]

    def test_constrained(self, capsys):
        code, out, _ = invoke(capsys, ["spectrum", "6", "--max-first-part", "2"])
        assert code == 0
        assert out == "-15 -9 -5 -3\n"

    def test_unsatisfiable_cap(self, capsys):
        for cap in ("-1", "0"):
            code, out, err = invoke(capsys, ["spectrum", "6", "--max-first-part", cap])
            assert (code, out) == (1, "")
            assert "max_first_part" in err

    def test_max_length_is_gone(self, capsys):
        code, out, err = invoke(capsys, ["spectrum", "6", "--max-length", "3"])
        assert (code, out) == (2, "")
        assert "--max-length" in err

    def test_limit_flag(self, capsys):
        # TABLE_MAX_N = 200 is the oracle's one bound
        code, out, _ = invoke(capsys, ["spectrum", "200"])
        assert code == 0
        assert out.split()[-1] == "19900"
        code, out, err = invoke(capsys, ["spectrum", "201"])
        assert (code, out) == (1, "")
        assert "200" in err

    def test_limit_env_var(self, capsys, monkeypatch):
        # the package reads no environment variable
        _, expected, _ = invoke(capsys, ["spectrum", "25"])
        monkeypatch.setenv("TNSPEC_ORACLE_LIMIT", "20")
        code, out, err = invoke(capsys, ["spectrum", "25"])
        assert (code, out, err) == (0, expected, "")

    def test_malformed_limit_env_var(self, capsys, monkeypatch):
        _, expected, _ = invoke(capsys, ["spectrum", "10"])
        for value in ("abc", "0", "-3", "201"):
            monkeypatch.setenv("TNSPEC_ORACLE_LIMIT", value)
            assert " ".join(map(str, spectrum(10).values)) + "\n" == expected
            assert len(list(enumerate_partitions(10))) == 42
            code, out, err = invoke(capsys, ["spectrum", "10"])
            assert (code, out, err) == (0, expected, "")


class TestOracleLimit:
    def test_no_setting_moves_the_bound(self, capsys, monkeypatch):
        for value in ("5", "abc"):
            monkeypatch.setenv("TNSPEC_ORACLE_LIMIT", value)
            for argv in (
                ["spectrum", "6"],
                ["contains", "6", "3"],
                ["conjecture", "6"],
                ["witness", "--theorem", "5", "48", "413"],
                ["verify", "--checks", "oracle_cross_check"],
            ):
                code, _, err = invoke(capsys, argv)
                assert (code, err) == (0, ""), (value, argv)
        for argv in (
            ["eig", "4", "1"],
            ["conj", "4", "1"],
            ["spectrum", "4"],
            ["contains", "4", "2"],
            ["witness", "31", "0"],
            ["cover", "31"],
            ["bounds", "48"],
            ["verify", "--checks", "family:Zero"],
            ["conjecture", "6"],
            ["cayley", "3"],
        ):
            for extra in (["--oracle-limit", "5"], ["--oracle-fallback"]):
                code, _, err = invoke(capsys, [*argv, *extra])
                assert code == 2, (argv, extra)
                assert extra[0] in err, (argv, extra)


class TestContains:
    def test_absent(self, capsys):
        code, out, _ = invoke(capsys, ["contains", "18", "4"])
        assert code == 0
        assert out == "false\n"

    def test_present_shows_witness(self, capsys):
        code, out, _ = invoke(capsys, ["contains", "18", "5"])
        assert code == 0
        assert out == "true\nwitness: 8 3 2 2 1 1 1\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, ["contains", "18", "4", "--format", "json"])
        assert json.loads(out) == {
            "contained": False,
            "k": 4,
            "n": 18,
            "witness": None,
        }

    def test_negative_k(self, capsys):
        code, out, _ = invoke(capsys, ["contains", "18", "-5"])
        assert code == 0
        assert out.startswith("true\n")


class TestWitness:
    def test_linear_text(self, capsys):
        code, out, _ = invoke(capsys, ["witness", "31", "-15"])
        assert code == 0
        assert out == (
            "15 2 1 1 1 1 1 1 1 1 1 1 1 1 1 1\n"
            "family: S1_mid_odd+conjugate\n"
            "verified: true\n"
        )

    def test_quadratic_json(self, capsys):
        code, out, _ = invoke(
            capsys, ["witness", "--theorem", "5", "48", "413", "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["partition"] == [31, 5, 3, 2, 1, 1, 1, 1, 1, 1, 1]
        assert payload["family"] == "head=31+oracle"
        assert payload["verified"] is True

    def test_below_range_without_fallback(self, capsys):
        # below n = 31 the oracle answers, and T_18 genuinely misses 4
        code, out, err = invoke(capsys, ["witness", "18", "4"])
        assert (code, out) == (1, "")
        assert "no partition of 18 has eigenvalue 4" in err

    def test_below_range_with_fallback(self, capsys):
        # no flag needed: the driver picks the oracle from n alone
        code, out, _ = invoke(capsys, ["witness", "30", "5"])
        assert code == 0
        assert "family: oracle" in out

    def test_invalid_theorem_value(self, capsys):
        code, _, err = invoke(capsys, ["witness", "--theorem", "4", "48", "90"])
        assert code == 2

    @pytest.mark.parametrize("theorem", ["3", "5"])
    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_n_below_one_is_checked_before_the_segment(self, capsys, theorem, n):
        code, out, err = invoke(capsys, ["witness", "--theorem", theorem, n, "0"])
        assert (code, out) == (1, "")
        assert f"a witness needs n >= 1, not n = {n}" in err
        assert "segment" not in err

    @pytest.mark.parametrize("theorem", ["3", "5"])
    def test_above_formula_bound_fails_fast(self, capsys, theorem):
        start = time.perf_counter()
        argv = ["witness", "--theorem", theorem, "100001", "5"]
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert "100001 exceeds the configured bound 100000" in err


class TestCover:
    def test_linear_text(self, capsys):
        code, out, _ = invoke(capsys, ["cover", "31"])
        assert code == 0
        assert "covered=63" in out
        assert "failures=0" in out

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, ["cover", "31", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "target,status,family,partition,detail"
        assert len(lines) == 64

    def test_quadratic(self, capsys):
        code, out, _ = invoke(capsys, ["cover", "--theorem", "5", "48"])
        assert code == 0
        assert "covered=423" in out

    @pytest.mark.parametrize("theorem", ["3", "5"])
    def test_above_formula_bound_fails_fast(self, capsys, theorem):
        start = time.perf_counter()
        code, out, err = invoke(capsys, ["cover", "--theorem", theorem, "100001"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert "100000" in err


class TestCsvText:
    def test_matches_csv_writer(self):
        # rows joined directly and rows csv.writer quotes, interleaved
        rows = [[], [""], ["", ""], ["a"], ["a,b", "c"], ['x"y'], ["l\nm", "2"]]
        rows += [["r\rs"], [" sp ", ""], ["1", "2", "3"], ["\u00e9", "\t"]]
        rows += linear_segment_cover(40).to_csv_rows()
        rows += [["7", "failed", "", "", "no head fits n = 48, k = 7"]]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(rows)
        assert cli._csv_text(rows) == buffer.getvalue()


class TestBounds:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, ["bounds", "48"])
        assert code == 0
        assert out == "y1=74 y2=496\n"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, ["bounds", "48", "--format", "json"])
        assert json.loads(out) == {"n": 48, "y1": 74, "y2": 496}


class TestVerify:
    def test_single_check(self, capsys):
        code, out, _ = invoke(
            capsys, ["verify", "--checks", "family:Zero", "--n-max", "40"]
        )
        assert code == 0
        assert "family:Zero" in out

    def test_empty_range(self, capsys):
        code, out, err = invoke(capsys, ["verify", "--n-min", "100"])
        assert code == 1
        assert out == ""
        assert "quadratic_segment (100..60)" in err

    def test_unknown_check(self, capsys):
        code, _, err = invoke(capsys, ["verify", "--checks", "bogus"])
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("checks", ["", ","])
    def test_empty_check_id_is_unknown(self, capsys, checks):
        # an empty list names the check '' rather than falling back to all
        code, out, err = invoke(capsys, ["verify", "--checks", checks])
        assert code == 1
        assert out == ""
        assert "unknown check ''" in err

    def test_artifacts(self, capsys, tmp_path):
        code, _, _ = invoke(
            capsys,
            [
                "verify",
                "--checks",
                "family:Zero,first_part_bounds",
                "--n-max",
                "35",
                "--out",
                str(tmp_path),
            ],
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "verify_family_Zero.json",
            "verify_first_part_bounds.json",
            "verify_summary.json",
        ]
        summary = json.loads((tmp_path / "verify_summary.json").read_text())
        assert summary["ok"] is True

    def test_artifacts_diff_clean(self, capsys, tmp_path):
        argv = ["verify", "--checks", "linear_segment", "--n-max", "40", "--out"]
        for run_dir in ("first", "second"):
            code, _, _ = invoke(capsys, argv + [str(tmp_path / run_dir)])
            assert code == 0
        names = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert names == ["verify_linear_segment.json", "verify_summary.json"]
        for name in names:
            first = (tmp_path / "first" / name).read_bytes()
            assert first == (tmp_path / "second" / name).read_bytes()
            assert b"elapsed" not in first


class TestConjecture:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, ["conjecture", "31"])
        assert code == 0
        first = out.splitlines()[0]
        assert first == "n=31 gap=[32, 62] present=31 absent=0"

    def test_json_deterministic(self, capsys):
        code, first, _ = invoke(capsys, ["conjecture", "40", "--format", "json"])
        clear_caches()
        code, second, _ = invoke(capsys, ["conjecture", "40", "--format", "json"])
        assert first == second


class TestCayley:
    def test_small(self, capsys):
        code, out, _ = invoke(capsys, ["cayley", "3"])
        assert code == 0
        assert out == "-3 0 3\n"

    def test_too_large(self, capsys):
        code, _, err = invoke(capsys, ["cayley", "7"])
        assert code == 1
        assert "6" in err


def _boundary_cases():
    """(argv, n, bound): each command one below, at and one above its bound."""
    cases = []
    for n in (MAX_FORMULA_N - 1, MAX_FORMULA_N, MAX_FORMULA_N + 1):
        y2 = str(quadratic_segment_bounds(n).y2)
        cases += [
            (["witness", str(n), str(-n)], n, MAX_FORMULA_N),
            (["witness", "--theorem", "5", str(n), y2], n, MAX_FORMULA_N),
        ]
    for n in (TABLE_MAX_N - 1, TABLE_MAX_N, TABLE_MAX_N + 1):
        cases += [
            (["spectrum", str(n), "--format", "json"], n, TABLE_MAX_N),
            (["contains", str(n), "-7"], n, TABLE_MAX_N),
            (["conjecture", str(n)], n, TABLE_MAX_N),
        ]
    # a cover at MAX_FORMULA_N itself would take minutes; above it, no time
    n = MAX_FORMULA_N + 1
    cases += [
        (["cover", str(n)], n, MAX_FORMULA_N),
        (["cover", "--theorem", "5", str(n)], n, MAX_FORMULA_N),
    ]
    return cases


BOUNDARY_CASES = _boundary_cases()


class TestBoundaries:
    """Every command at its bound +-1 exits 0, or 1 with one "error:" line
    naming the bound; nothing escapes as a traceback."""

    @pytest.mark.parametrize(
        "argv, n, bound",
        BOUNDARY_CASES,
        ids=[" ".join(argv) for argv, _, _ in BOUNDARY_CASES],
    )
    def test_exit_code_and_no_traceback(self, capsys, argv, n, bound):
        code, out, err = invoke(capsys, argv)
        assert "Traceback" not in err
        if n <= bound:
            assert (code, err) == (0, "")
            assert out
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(bound) in err


class TestArtifacts:
    def test_spectrum_artifact(self, capsys, tmp_path):
        code, _, _ = invoke(capsys, ["spectrum", "4", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "spectrum_4.json").read_text())
        assert payload == {"n": 4, "values": [-6, -2, 0, 2, 6]}

    def test_witness_artifact(self, capsys, tmp_path):
        invoke(capsys, ["witness", "48", "-30", "--out", str(tmp_path)])
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert files[0].name == "witness_48_-30.json"

    def test_out_receives_the_json_payload_in_every_format(self, capsys, tmp_path):
        for argv, name in (
            (["cover", "35"], "cover_linear_35.json"),
            (["conjecture", "40"], "conjecture_40.json"),
            (["spectrum", "8", "--witnesses"], "spectrum_8.json"),
            (["witness", "60", "-7"], "witness_60_-7.json"),
        ):
            _, printed, _ = invoke(capsys, argv + ["--format", "json"])
            for fmt in ("text", "csv", "json"):
                out = tmp_path / fmt / argv[0]
                invoke(capsys, argv + ["--format", fmt, "--out", str(out)])
                assert (out / name).read_text() == printed, (argv, fmt)


class TestParser:
    """One parser per process: built on the first run, never at import, and
    no run leaves anything in it that a later run could see."""

    SEQUENCE = [
        ["witness", "--theorem", "5", "60", "500", "--out", "{out}"],
        ["cover", "35"],
        ["eig"],
        ["conjecture", "40", "--format", "json"],
        ["--help"],
        ["witness", "60", "-7", "--format", "csv"],
        ["cover", "--theorem", "5", "48", "--format", "csv"],
        ["spectrum", "8", "--witnesses"],
        ["spectrum", "8", "--max-first-part", "0"],
        ["spectrum", "8", "--format", "json"],
        ["eig", "--format", "xml", "3"],
        ["contains", "18", "4", "--format", "csv", "--out", "{out}"],
        ["cover", "35", "--out", "{out}"],
        ["conjecture", "40"],
        ["cover", "35", "--format", "json"],
        ["cover", "--help"],
        # csv, as the text table shows timings
        ["verify", "--checks", "first_part_bounds", "--n-min", "35", "--format", "csv"],
        ["verify", "--checks", "first_part_bounds", "--n-max", "40", "--format", "csv"],
        ["verify", "--format", "csv", "--checks", "family:Zero", "--out", "{out}"],
    ]

    @staticmethod
    def outcome(capsys, argv, out):
        code = run([arg.format(out=out) for arg in argv])
        captured = capsys.readouterr()
        written = {}
        if out.exists():
            written = {path.name: path.read_bytes() for path in out.iterdir()}
        return code, captured.out, captured.err, written

    def test_each_run_prints_what_it_prints_alone(self, capsys, tmp_path):
        alone = []
        for index, argv in enumerate(self.SEQUENCE):
            build_parser.cache_clear()  # a fresh parser, as in a new process
            alone.append(self.outcome(capsys, argv, tmp_path / f"alone_{index}"))
        assert {code for code, *_ in alone} == {0, 1, 2}
        parser = build_parser()
        for repeat in range(2):
            for index, argv in enumerate(self.SEQUENCE):
                out = tmp_path / f"shared_{repeat}_{index}"
                assert self.outcome(capsys, argv, out) == alone[index], argv
        assert build_parser() is parser
        assert build_parser.cache_info().misses == 1

    def test_importing_builds_no_parser(self):
        probe = (
            "import sys, tnspec; print('tnspec.cli' in sys.modules); "
            "import tnspec.cli; print(tnspec.cli.build_parser.cache_info().currsize)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert out.stdout.split() == ["False", "0"]
