"""Tests for the command-line interface and configuration resolution."""

import csv
import json
import subprocess
import sys

import pytest

from topkcert import cli
from topkcert.certify import ScreenThenCertify
from topkcert.cli import main
from topkcert.harness import COLUMNS
from topkcert.instances import GapInstanceSpec, generate_gap_instance, load_instance
from topkcert.oracles import StrongOracle, WeakOracle


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestRun:
    def test_emits_one_csv_row(self, capsys):
        code, out = run_cli(["run", "--algo", "ace", "--n", "200", "--k", "20", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 2
        row = dict(zip(COLUMNS, next(csv.reader([lines[1]]))))
        assert row["algorithm"] == "ace"
        assert row["correct"] in ("true", "false")

    def test_interval_conflicts_are_counted_on_stderr(self, capsys):
        # intervals scaled for sigma 0.01 on draws of sigma 0.1 miss many values
        args = ["run", "--algo", "stc", "--n", "300", "--k", "30", "--ci-sigma", "0.01"]
        assert main(args) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == ",".join(COLUMNS) and len(lines) == 2
        inst = generate_gap_instance(GapInstanceSpec(n=300, k=30, seed=0))
        weak, strong = WeakOracle(inst, sigma=0.1, seed=0), StrongOracle(inst)
        conflicts = ScreenThenCertify(30, ci_sigma=0.01).fit(weak, strong).report_.interval_conflicts
        assert conflicts > 0
        assert captured.err == f"interval conflicts: {conflicts}\n"

    def test_a_run_without_conflicts_prints_nothing_on_stderr(self, capsys):
        assert main(["run", "--algo", "stc", "--n", "300", "--k", "30"]) == 0
        captured = capsys.readouterr()
        row = dict(zip(COLUMNS, next(csv.reader([captured.out.splitlines()[1]]))))
        assert row["coverage_held"] == "true"
        assert captured.err == ""

    def test_jsonl_output(self, capsys):
        code, out = run_cli(
            ["run", "--algo", "stc", "--n", "100", "--k", "10", "--format", "jsonl"], capsys
        )
        assert code == 0
        record = json.loads(out)
        assert record["algorithm"] == "stc"

    def test_run_on_instance_file(self, capsys, tmp_path):
        path = tmp_path / "inst.csv"
        code, _ = run_cli(["gen", "--n", "80", "--k", "8", "--out", str(path)], capsys)
        assert code == 0
        code, out = run_cli(
            ["run", "--algo", "brute", "--instance", str(path), "--k", "8"], capsys
        )
        assert code == 0
        row = dict(zip(COLUMNS, next(csv.reader([out.strip().splitlines()[1]]))))
        assert row["strong_calls"] == "80"
        assert row["correct"] == "true"


class TestInstanceErrors:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "--algo", "stc", "--n", "50", "--k", "100"], "1 <= k <= n - 1 = 49"),
            (["run", "--algo", "stc", "--n", "50", "--k", "50"], "1 <= k <= n - 1 = 49"),
            (["run", "--algo", "stc", "--n", "500", "--k", "10", "--gap", "0.9"],
             "gap must be at most 0.36, got 0.9"),
        ],
    )
    def test_run_names_the_config(self, args, message):
        with pytest.raises(SystemExit, match=f"^the config does not describe a valid instance: .*{message}"):
            main(args)

    def test_gen_names_the_config(self, tmp_path):
        args = ["gen", "--kind", "packing", "--n", "10", "--k", "5", "--m", "20"]
        with pytest.raises(SystemExit, match="^the config does not describe a valid instance: m must be"):
            main(args + ["--out", str(tmp_path / "p.csv")])
        with pytest.raises(SystemExit, match="^the config does not describe a valid instance: .*k <= n - 1"):
            main(["gen", "--n", "10", "--k", "10", "--out", str(tmp_path / "g.csv")])
        assert not list(tmp_path.iterdir())

    def test_verify_names_the_config(self, capsys):
        with pytest.raises(SystemExit, match="^the config does not describe a valid instance: .*k <= n - 1"):
            main(["verify", "--n", "50", "--k", "50", "--seeds", "0..1"])
        assert capsys.readouterr().out == ""

    def test_run_names_the_instance_file(self, tmp_path):
        path = tmp_path / "ids.csv"
        path.write_text("item_id,value\n0,0.5\n2,0.3\n")
        with pytest.raises(SystemExit, match=r"^--instance .*ids\.csv: .*item_id 2 out of order"):
            main(["run", "--algo", "stc", "--instance", str(path), "--k", "1"])
        missing = tmp_path / "missing.csv"
        with pytest.raises(SystemExit, match=r"^--instance .*missing\.csv: .*No such file"):
            main(["run", "--algo", "stc", "--instance", str(missing), "--k", "1"])


class TestMissingOutDirectory:
    def test_gen_names_out(self, tmp_path):
        out = tmp_path / "missing" / "gap.csv"
        with pytest.raises(SystemExit, match=r"^--out .*gap\.csv: directory .*missing' does not exist"):
            main(["gen", "--n", "60", "--k", "6", "--out", str(out)])
        assert not list(tmp_path.iterdir())

    def test_sweep_names_out_before_running(self, tmp_path, monkeypatch):
        def fail(spec):
            raise AssertionError("run_sweep was called")

        monkeypatch.setattr(cli, "run_sweep", fail)
        out = tmp_path / "missing" / "rows.csv"
        args = ["sweep", "--experiment", "scaling_n", "--grid", "100", "--out", str(out)]
        with pytest.raises(SystemExit, match=r"^--out .*rows\.csv: directory .*missing' does not exist"):
            main(args)
        assert not list(tmp_path.iterdir())


class TestOutDirectory:
    def test_gen_rejects_a_directory(self, tmp_path):
        with pytest.raises(SystemExit, match=r"^--out .*: is a directory, not a file$"):
            main(["gen", "--n", "60", "--k", "6", "--out", str(tmp_path)])
        assert not list(tmp_path.iterdir())

    def test_gen_rejects_the_current_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=r"^--out \.: is a directory, not a file$"):
            main(["gen", "--n", "100", "--k", "5", "--out", "."])
        assert not list(tmp_path.iterdir())

    def test_sweep_rejects_a_directory_before_running(self, tmp_path, monkeypatch):
        def fail(spec):
            raise AssertionError("run_sweep was called")

        monkeypatch.setattr(cli, "run_sweep", fail)
        args = ["sweep", "--experiment", "scaling_n", "--grid", "100", "--out", str(tmp_path)]
        with pytest.raises(SystemExit, match=r"^--out .*: is a directory, not a file$"):
            main(args)
        assert not list(tmp_path.iterdir())


class TestGen:
    def test_gap_instance_roundtrips(self, capsys, tmp_path):
        path = tmp_path / "gap.csv"
        code, _ = run_cli(["gen", "--n", "60", "--k", "6", "--out", str(path)], capsys)
        assert code == 0
        assert load_instance(path, k=6).n == 60

    def test_packing_requires_m(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "--kind", "packing", "--out", str(tmp_path / "p.csv")])

    def test_packing_instance(self, capsys, tmp_path):
        path = tmp_path / "pack.csv"
        code, _ = run_cli(
            ["gen", "--kind", "packing", "--n", "100", "--k", "5", "--m", "30", "--out", str(path)],
            capsys,
        )
        assert code == 0
        inst = load_instance(path, k=5)
        assert inst.n == 100


class TestSweep:
    def test_sweep_writes_file(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _ = run_cli(
            [
                "sweep", "--experiment", "scaling_n", "--grid", "100,150",
                "--replicates", "2", "--algorithms", "stc,ace", "--k", "10",
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 1 + 2 * 2 * 2 + 2 * 2  # header + runs + summaries

    def test_repeated_invocations_byte_identical(self, tmp_path):
        args = [
            sys.executable, "-m", "topkcert.cli", "sweep", "--experiment", "scaling_n",
            "--grid", "120", "--replicates", "2", "--algorithms", "stc,ace_w",
            "--k", "12", "--out",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        subprocess.run(args + [str(out_a)], check=True, capture_output=True)
        subprocess.run(args + [str(out_b)], check=True, capture_output=True)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_sweep_where_nothing_ran_exits_one(self, capsys, tmp_path):
        # ci.sigma = 0 is rejected by every run, so every row is an error
        out = tmp_path / "rows.csv"
        code, stdout = run_cli(
            [
                "sweep", "--experiment", "scaling_n", "--grid", "100", "--replicates", "1",
                "--algorithms", "stc", "--k", "10", "--ci-sigma", "0", "--out", str(out),
            ],
            capsys,
        )
        assert code == 1
        assert "2 errors" in stdout
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {row["status"] for row in rows} == {"error"}

    def test_sweep_with_an_infeasible_point_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, stdout = run_cli(
            [
                "sweep", "--experiment", "scaling_k", "--grid", "5,500", "--replicates", "1",
                "--algorithms", "stc", "--n", "100", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "1 errors" in stdout


class TestOracleConfigErrors:
    """A config the oracles reject exits 1 with error rows or problem lines,
    as other config errors do, and raises nothing."""

    @pytest.mark.parametrize("args, note", [
        (["--sigma", "-1"], "sigma must be >= 0, got -1.0"),
        (["--strong-cap", "-1"], "cap must be >= 0, got -1"),
        # its draws would overflow to +-inf and the screen's means to NaN
        (["--sigma", "1e308"],
         "sigma must be at most 1e+100, where draws and their sums stay finite; got 1e+308"),
    ])
    def test_run_writes_an_error_row(self, capsys, args, note):
        code, out = run_cli(["run", "--algo", "ace", "--n", "200", "--k", "10", *args], capsys)
        assert code == 1
        [row] = csv.DictReader(out.splitlines())
        assert (row["status"], row["note"]) == ("error", note)

    def test_run_with_an_unknown_noise_model_writes_an_error_row(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPKCERT_ORACLE_NOISE", "bogus")
        code, out = run_cli(["run", "--algo", "stc", "--n", "200", "--k", "10"], capsys)
        assert code == 1
        [row] = csv.DictReader(out.splitlines())
        assert row["status"] == "error" and row["note"].startswith("noise must be one of")

    @pytest.mark.parametrize("experiment, args", [
        ("scaling_n", ["--sigma", "-1"]),
        ("coverage", ["--sigma", "-1"]),
        ("coverage", ["--n-weak", "0"]),
    ])
    def test_sweep_writes_error_rows(self, capsys, tmp_path, experiment, args):
        out = tmp_path / "rows.csv"
        code, stdout = run_cli(
            ["sweep", "--experiment", experiment, "--grid", "200", "--replicates", "1",
             "--k", "10", "--out", str(out), *args],
            capsys,
        )
        assert code == 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows and {row["status"] for row in rows} == {"error"}

    def test_verify_prints_one_problem_per_algorithm_and_seed(self, capsys):
        code = main(["verify", "--seeds", "0..2", "--n", "200", "--k", "10", "--sigma", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "verified 2 seeds: 8 problems\n"
        assert captured.err.splitlines()[0] == "seed 0: stc failed: sigma must be >= 0, got -1.0"

    def test_no_traceback_reaches_stderr(self):
        done = subprocess.run(
            [sys.executable, "-m", "topkcert.cli", "verify", "--seeds", "0..2", "--sigma", "-1"],
            capture_output=True, text=True,
        )
        assert done.returncode == 1 and "Traceback" not in done.stderr

    def test_an_overflowing_sigma_exits_without_a_traceback(self):
        done = subprocess.run(
            [sys.executable, "-m", "topkcert.cli", "run", "--algo", "stc", "--n", "200",
             "--k", "10", "--sigma", "1e308"],
            capture_output=True, text=True,
        )
        assert done.returncode == 1 and "Traceback" not in done.stderr


class TestVerify:
    def test_clean_range_exits_zero(self, capsys):
        code, out = run_cli(["verify", "--seeds", "0..3", "--n", "120", "--k", "12"], capsys)
        assert code == 0
        assert "OK" in out
        # a..b is half-open: 0..3 runs seeds 0, 1 and 2
        assert "verified 3 seeds" in out


class TestConfigResolution:
    def test_config_file_then_env_then_flag(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("delta=0.2\nn=100\nk=10\n")
        out = tmp_path / "inst.csv"

        # config file applies
        code, _ = run_cli(["gen", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert load_instance(out, k=10).n == 100

        # env overrides config
        monkeypatch.setenv("TOPKCERT_N", "120")
        code, _ = run_cli(["gen", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert load_instance(out, k=10).n == 120

        # explicit flag overrides env
        code, _ = run_cli(["gen", "--config", str(cfg), "--n", "140", "--out", str(out)], capsys)
        assert code == 0
        assert load_instance(out, k=10).n == 140

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("frobnicate=1\n")
        with pytest.raises(SystemExit):
            main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])

    def test_malformed_config_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("delta 0.2\n")
        with pytest.raises(SystemExit):
            main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])


class TestBooleanText:
    @pytest.mark.parametrize("text,value", [
        ("1", True), ("TRUE", True), ("yes", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_recognised_text(self, text, value, monkeypatch):
        from topkcert.cli import build_parser, resolve_config

        monkeypatch.setenv("TOPKCERT_CI_CLAMP", text)
        assert resolve_config(build_parser().parse_args(["verify"]))["ci.clamp"] is value

    def test_unrecognised_env_text_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPKCERT_CI_CLAMP", "ture")
        with pytest.raises(SystemExit, match="ci.clamp"):
            main(["gen", "--n", "50", "--k", "5", "--out", str(tmp_path / "x.csv")])

    def test_unrecognised_config_file_text_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("ci.clamp=ture\n")
        with pytest.raises(SystemExit, match="ci.clamp"):
            main(["gen", "--config", str(cfg), "--n", "50", "--k", "5",
                  "--out", str(tmp_path / "x.csv")])


class TestNumericText:
    def test_malformed_env_number_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPKCERT_N", "1e3")
        with pytest.raises(SystemExit, match="'n' takes int, not '1e3'"):
            main(["gen", "--out", str(tmp_path / "x.csv")])

    def test_malformed_config_file_number_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n=1e3\n")
        with pytest.raises(SystemExit, match="'n' takes int, not '1e3'"):
            main(["gen", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])

    def test_malformed_float_names_the_key(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOPKCERT_DELTA", "abc")
        with pytest.raises(SystemExit, match="'delta' takes float"):
            main(["gen", "--n", "50", "--k", "5", "--out", str(tmp_path / "x.csv")])


class TestNoneText:
    """``""`` and ``none`` stand for None, which only keys defaulting to None take."""

    @pytest.mark.parametrize("variable, text, args, key", [
        ("TOPKCERT_N", "", ["run", "--algo", "stc"], "n"),
        ("TOPKCERT_N_WEAK", "none", ["verify", "--seeds", "0..1"], "n_weak"),
    ])
    def test_a_required_key_exits_with_one_line(self, monkeypatch, variable, text, args, key):
        monkeypatch.setenv(variable, text)
        done = subprocess.run(
            [sys.executable, "-m", "topkcert.cli", *args], capture_output=True, text=True
        )
        assert done.returncode != 0 and done.stdout == ""
        assert done.stderr == f"config key {key!r} takes int, not {text!r}\n"

    def test_a_required_key_in_a_config_file_is_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k=none\n")
        with pytest.raises(SystemExit, match="^config key 'k' takes int, not 'none'$"):
            main(["run", "--algo", "stc", "--config", str(cfg)])

    @pytest.mark.parametrize("key", ["near_ties", "weak_budget", "w_max", "oracle.strong_cap", "ci.sigma"])
    @pytest.mark.parametrize("text", ["", "None"])
    def test_keys_that_default_to_none_take_it(self, key, text, tmp_path, monkeypatch):
        from topkcert.cli import build_parser, resolve_config

        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}=5\n")
        monkeypatch.setenv("TOPKCERT_" + key.upper().replace(".", "_"), text)
        args = build_parser().parse_args(["verify", "--config", str(cfg)])
        assert resolve_config(args)[key] is None


def _sweep_args(tmp_path, *extra):
    return ["sweep", "--replicates", "1", "--algorithms", "stc", "--n", "100", "--k", "10",
            "--out", str(tmp_path / "rows.csv"), *extra]


class TestMalformedArguments:
    @pytest.mark.parametrize("grid, message", [
        ("100.7", "--grid sweeps the integer 'n', not '100.7'"),
        ("1e3,abc", "--grid takes numbers, not 'abc'"),
        (",", "--grid must name at least one point"),
    ])
    def test_malformed_grid_rejected(self, capsys, tmp_path, grid, message):
        with pytest.raises(SystemExit, match=message):
            main(_sweep_args(tmp_path, "--experiment", "scaling_n", "--grid", grid))
        assert not (tmp_path / "rows.csv").exists()

    def test_integral_float_text_is_an_int_point(self, capsys, tmp_path):
        code, _ = run_cli(_sweep_args(tmp_path, "--experiment", "scaling_n", "--grid", "1.2e2"),
                          capsys)
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
        assert {row["n"] for row in rows} == {"120"}
        assert rows[-1]["note"] == "point=120"

    def test_unknown_algorithm_rejected(self, capsys, tmp_path):
        args = _sweep_args(tmp_path, "--experiment", "scaling_n", "--grid", "100")
        args[args.index("--algorithms") + 1] = "stc,foo"
        with pytest.raises(SystemExit, match="--algorithms .*'foo'"):
            main(args)

    def test_zero_replicates_rejected(self, capsys, tmp_path):
        args = _sweep_args(tmp_path, "--experiment", "scaling_n", "--grid", "100")
        args[args.index("--replicates") + 1] = "0"
        with pytest.raises(SystemExit, match="--replicates must be at least 1, not 0"):
            main(args)

    @pytest.mark.parametrize("seeds", ["a..b", "0..x", "1,x", "5..2", ","])
    def test_malformed_seeds_rejected(self, capsys, seeds):
        with pytest.raises(SystemExit, match="--seeds"):
            main(["verify", "--seeds", seeds, "--n", "50", "--k", "5"])


class TestHardnessSweep:
    def test_float_points_reach_rows_and_summaries(self, capsys, tmp_path):
        code, _ = run_cli(
            _sweep_args(tmp_path, "--experiment", "hardness", "--grid", "0.08,0.2"), capsys
        )
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
        runs = [row for row in rows if row["kind"] == "run"]
        summaries = [row for row in rows if row["kind"] == "summary"]
        assert [row["gap"] for row in runs] == ["0.08", "0.2"]
        assert [(row["gap"], row["note"]) for row in summaries] == [
            ("0.08", "point=0.08"), ("0.2", "point=0.2")
        ]


class TestTiming:
    @pytest.mark.parametrize("timing", [False, True])
    def test_run_fills_wall_ms_only_when_asked(self, capsys, timing):
        args = ["run", "--algo", "stc", "--n", "100", "--k", "10", "--format", "jsonl"]
        code, out = run_cli(args + ["--timing"] * timing, capsys)
        assert code == 0
        wall_ms = json.loads(out)["wall_ms"]
        if timing:
            assert isinstance(wall_ms, float) and wall_ms >= 0.0
        else:
            assert wall_ms is None

    @pytest.mark.parametrize("timing", [False, True])
    def test_sweep_fills_wall_ms_only_when_asked(self, capsys, tmp_path, timing):
        args = _sweep_args(tmp_path, "--experiment", "scaling_n", "--grid", "100,120")
        code, _ = run_cli(args + ["--timing"] * timing, capsys)
        assert code == 0
        rows = list(csv.DictReader((tmp_path / "rows.csv").read_text().splitlines()))
        walls = [row["wall_ms"] for row in rows if row["kind"] == "run"]
        assert len(walls) == 2
        if timing:
            assert all(float(wall) >= 0.0 for wall in walls)
        else:
            assert walls == ["", ""]
