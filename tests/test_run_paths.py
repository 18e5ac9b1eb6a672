"""The seed a sweep reads, the row a single run emits, and which errors become rows."""

import csv
import math

import pytest

from topkcert import harness
from topkcert.cli import main
from topkcert.harness import (
    BASE_DEFAULTS,
    COLUMNS,
    SweepSpec,
    gap_instance,
    rows_to_csv_text,
    run_replicate,
    run_sweep,
)
from topkcert.instances import load_instance
from topkcert.oracles import StrongOracle

SWEEP_ARGS = ["sweep", "--experiment", "scaling_n", "--grid", "150", "--replicates", "2",
              "--algorithms", "stc,ace", "--k", "15"]


def _sweep_text(base_seed):
    spec = SweepSpec(experiment="scaling_n", grid=[150], replicates=2, base={"k": 15},
                     algorithms=("stc", "ace"), base_seed=base_seed)
    return rows_to_csv_text(run_sweep(spec))


def _cli_sweep(tmp_path, capsys, *extra):
    out = tmp_path / "rows.csv"
    assert main(SWEEP_ARGS + ["--out", str(out), *extra]) == 0
    capsys.readouterr()
    return out.read_text()


def test_sweep_seed_flag_sets_the_base_seed(tmp_path, capsys):
    text = _cli_sweep(tmp_path, capsys, "--seed", "5")
    assert text == _sweep_text(5)
    assert text != _sweep_text(0)
    assert _cli_sweep(tmp_path, capsys) == _sweep_text(0)


def test_sweep_seed_env_var_sets_the_base_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TOPKCERT_ORACLE_SEED", "9")
    assert _cli_sweep(tmp_path, capsys) == _sweep_text(9)


def test_base_seed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        main(SWEEP_ARGS + ["--base-seed", "5", "--out", str(tmp_path / "rows.csv")])


def test_run_rows_name_their_experiment(capsys):
    assert main(["run", "--algo", "stc", "--n", "120", "--k", "12"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(COLUMNS, next(csv.reader([lines[1]]))))
    assert row["experiment"] == "run"



def test_run_on_a_loaded_instance_reports_its_gap(tmp_path, capsys):
    path = tmp_path / "instance.csv"
    assert main(["gen", "--n", "300", "--k", "10", "--gap", "0.2", "--out", str(path)]) == 0
    assert main(["run", "--algo", "stc", "--k", "10", "--instance", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    row = dict(zip(COLUMNS, next(csv.reader([lines[-1]]))))
    gap = load_instance(path, 10).gap
    assert gap != BASE_DEFAULTS["gap"]
    assert float(row["gap"]) == gap

class _NanStrongOracle(StrongOracle):
    def query(self, x):
        super().query(x)
        return math.nan


@pytest.mark.parametrize("algorithm", ["stc", "ace"])
def test_value_error_after_oracle_access_propagates(algorithm, monkeypatch):
    monkeypatch.setattr(harness, "StrongOracle", _NanStrongOracle)
    cfg = dict(BASE_DEFAULTS, n=200, k=20)
    with pytest.raises(ValueError, match="non-monotone"):
        run_replicate(gap_instance(cfg, 0), 0, [algorithm], cfg)


def test_config_rejection_still_gives_an_error_result():
    cfg = dict(BASE_DEFAULTS, n=200, k=20, n_weak=1)
    cfg["ci.method"] = "empirical_bernstein"
    results = run_replicate(gap_instance(cfg, 0), 0, ["stc", "ace"], cfg)
    assert [r.error is not None for r in results] == [True, True]
    assert all(r.report is None for r in results)
