"""Tests for metrics, sweeps, and CSV emission."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from topkcert import harness
from topkcert.certify import BruteForceCertify
from topkcert.core import IntervalState, near_tie_mass, true_top_k
from topkcert.harness import (
    BASE_DEFAULTS,
    COLUMNS,
    ExperimentRow,
    SweepSpec,
    compute_metrics,
    run_replicate,
    run_sweep,
    rows_to_csv_text,
    verify_invariants,
    write_rows,
)
from topkcert.instances import GapInstanceSpec, generate_gap_instance
from topkcert.oracles import StrongOracle


@pytest.fixture(scope="module")
def instance():
    return generate_gap_instance(GapInstanceSpec(n=200, k=20, seed=0))


class TestComputeMetrics:
    def test_brute_force_metrics(self, instance):
        report = BruteForceCertify(20).fit(None, StrongOracle(instance)).report_
        metrics = compute_metrics(report, instance)
        assert metrics["correct"] is True
        assert metrics["coverage_held"] is True
        assert metrics["rho"] == pytest.approx(instance.n / near_tie_mass(instance, 0.0))

    def test_forced_wrong_set_is_flagged(self, instance):
        report = BruteForceCertify(20).fit(None, StrongOracle(instance)).report_
        wrong = dataclasses.replace(report, selected=tuple(range(20)))
        truth = set(int(x) for x in true_top_k(instance))
        if truth != set(range(20)):
            assert compute_metrics(wrong, instance)["correct"] is False

    def test_ambiguity_bound_asserted_on_covered_runs(self, instance):
        cfg = dict(BASE_DEFAULTS)
        cfg["k"] = 20
        for result in run_replicate(instance, 3, ("stc", "ace", "ace_w", "ta"), cfg):
            metrics = compute_metrics(result.report, instance)
            if metrics["coverage_held"]:
                assert result.report.ambiguous_initial <= metrics["m_4eps"]

    def test_ambiguity_bound_guard_fires_only_on_covered_states(self, instance):
        values = instance.values
        report = dataclasses.replace(
            BruteForceCertify(20).fit(None, StrongOracle(instance)).report_,
            weak_state=IntervalState.from_bounds(values, values),
            eps_max=0.0,
            ambiguous_initial=near_tie_mass(instance, 0.0) + 1,
        )
        with pytest.raises(RuntimeError, match=r"exceeds m\(4 eps_max\) on a covered run"):
            compute_metrics(report, instance)
        shifted = IntervalState.from_bounds(values + 0.01, values + 0.01)
        metrics = compute_metrics(dataclasses.replace(report, weak_state=shifted), instance)
        assert metrics["coverage_held"] is False
        assert report.ambiguous_initial > metrics["m_4eps"]


class TestRunSweep:
    def test_rows_and_summaries(self):
        spec = SweepSpec(
            experiment="scaling_n",
            grid=[100, 200],
            replicates=3,
            base={"k": 10},
            algorithms=("stc", "ace"),
        )
        rows = run_sweep(spec)
        runs = [r for r in rows if r.kind == "run"]
        summaries = [r for r in rows if r.kind == "summary"]
        assert len(runs) == 2 * 3 * 2
        assert len(summaries) == 2 * 2
        for summary in summaries:
            group = [
                r
                for r in runs
                if r.algorithm == summary.algorithm and r.n == summary.n and r.status == "ok"
            ]
            assert summary.strong_calls == pytest.approx(
                float(np.mean([r.strong_calls for r in group]))
            )
            assert summary.replicates == 3

    def test_lower_bound_sweep_hits_packed_size(self):
        spec = SweepSpec(
            experiment="lower_bound",
            grid=[20, 40],
            replicates=2,
            base={"n": 150, "k": 5},
            algorithms=("stc", "ace"),
        )
        rows = [r for r in run_sweep(spec) if r.kind == "run"]
        assert all(r.status == "ok" for r in rows)
        by_point = {}
        for row in rows:
            by_point.setdefault(row.ambiguous_initial, []).append(row.strong_calls)
        assert {20, 40} <= set(by_point)
        for point, calls in by_point.items():
            assert all(c == point for c in calls)

    def test_infeasible_point_records_error_row(self):
        spec = SweepSpec(
            experiment="scaling_k",
            grid=[5, 500],  # 500 >= n is infeasible
            replicates=1,
            base={"n": 100},
            algorithms=("stc",),
        )
        rows = run_sweep(spec)
        statuses = {r.status for r in rows}
        assert "error" in statuses and "ok" in statuses

    def test_coverage_experiment(self):
        spec = SweepSpec(
            experiment="coverage", grid=[150], replicates=5, base={"k": 15}, algorithms=("stc",)
        )
        rows = [r for r in run_sweep(spec) if r.kind == "run"]
        assert len(rows) == 5
        assert all(r.coverage_held in (True, False) for r in rows)
        assert all(r.strong_calls == 0 for r in rows)


class TestDeterminism:
    def test_identical_sweeps_emit_identical_csv(self):
        spec = dict(
            experiment="scaling_n",
            grid=[120],
            replicates=3,
            base={"k": 12},
            algorithms=("stc", "ace", "ace_w", "ta"),
        )
        text_a = rows_to_csv_text(run_sweep(SweepSpec(**spec)))
        text_b = rows_to_csv_text(run_sweep(SweepSpec(**spec)))
        assert text_a == text_b

    def test_different_base_seed_changes_rows(self):
        base = dict(experiment="scaling_n", grid=[120], replicates=2, base={"k": 12})
        text_a = rows_to_csv_text(run_sweep(SweepSpec(**base)))
        text_b = rows_to_csv_text(run_sweep(SweepSpec(**base, base_seed=77)))
        assert text_a != text_b


class TestOutputFiles:
    def test_csv_schema(self, tmp_path):
        spec = SweepSpec(
            experiment="scaling_n", grid=[100], replicates=1, base={"k": 10}, algorithms=("stc",)
        )
        rows = run_sweep(spec)
        path = tmp_path / "rows.csv"
        write_rows(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == len(rows) + 1

    def test_jsonl_format(self, tmp_path):
        import json

        spec = SweepSpec(
            experiment="scaling_n", grid=[100], replicates=1, base={"k": 10}, algorithms=("stc",)
        )
        rows = run_sweep(spec)
        path = tmp_path / "rows.jsonl"
        write_rows(rows, path, fmt="jsonl")
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(parsed) == len(rows)
        assert list(parsed[0]) == list(COLUMNS)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_rows([], tmp_path / "x.bin", fmt="parquet")


class TestVerifyInvariants:
    def test_clean_seeds(self):
        problems = verify_invariants(range(4), {"n": 150, "k": 15})
        assert problems == []

    def test_screens_that_differ_are_reported(self, monkeypatch):
        def run_with_a_moved_bound(*args, **kwargs):
            results = run_replicate(*args, **kwargs)
            ta = next(res for res in results if res.algorithm == "ta")
            state = ta.report.weak_state
            lower = state.lower.copy()
            lower[0] = np.nextafter(lower[0], -1.0)
            moved = IntervalState.from_bounds(lower, state.upper, state.pulls, state.means)
            ta.report = dataclasses.replace(ta.report, weak_state=moved)
            return results

        monkeypatch.setattr(harness, "run_replicate", run_with_a_moved_bound)
        problems = verify_invariants(range(1), {"n": 150, "k": 15})
        assert problems == ["seed 0: uniform-screen certifiers report different weak bounds"]

    @pytest.mark.parametrize("step", [1, -1])
    def test_a_ta_trace_that_ends_past_or_short_of_its_stop_is_reported(self, monkeypatch, step):
        def run_with_a_moved_stop(*args, **kwargs):
            results = run_replicate(*args, **kwargs)
            ta = next(res for res in results if res.algorithm == "ta")
            report = ta.report
            order = np.argsort(-report.weak_state.point_estimates(), kind="stable").tolist()
            stop = len(report.trace)
            assert report.trace == tuple(order[:stop]) and 15 < stop < 150
            trace = tuple(order[: stop + step])
            ta.report = dataclasses.replace(report, trace=trace, strong_calls=len(trace))
            return results

        monkeypatch.setattr(harness, "run_replicate", run_with_a_moved_stop)
        problems = verify_invariants(range(1), {"n": 150, "k": 15})
        assert problems == ["seed 0: ta's trace is not where its stopping rule first fires"]


class TestSharedScreen:
    def test_screen_certifiers_of_a_replicate_share_one_read_only_screen(self, instance):
        cfg = {**BASE_DEFAULTS, "n": 200, "k": 20}
        results = run_replicate(instance, 0, ["stc", "ace", "ace_w", "ta"], cfg)
        stc, ace, ace_w, ta = (res.report.weak_state for res in results)
        assert stc.lower is ace.lower is ta.lower and stc.upper is ta.upper
        assert ace_w.lower is not stc.lower
        for state in (stc, ace_w):
            with pytest.raises(ValueError):
                state.lower[0] = 0.5
        # the strong phases' reveals left the screen as it was
        assert not (stc.lower == stc.upper).any()
        assert all(res.report.strong_calls for res in results)

    def test_peak_allocation_per_item_of_a_screened_replicate(self):
        # every n-sized array of doubles costs 8 bytes per item: the bound
        # holds one shared screen and the temporaries of one step at a time,
        # not a screen per certifier
        n = 200_000
        cfg = {**BASE_DEFAULTS, "n": n, "k": 200}
        inst = generate_gap_instance(GapInstanceSpec(n=n, k=200, seed=0))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            results = run_replicate(inst, 0, ["stc", "ta"], cfg)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert all(res.error is None for res in results)
        assert peak / n < 118


def _byte_rows():
    return [
        ExperimentRow(
            experiment="scaling_n", algorithm="stc", n=10, k=2, gap=0.05, seed=3,
            strong_calls=4, eps_max=0.125, correct=True, coverage_held=False,
            note='a "quoted", note',
        ),
        ExperimentRow(
            kind="summary", status="error", experiment="hardness", algorithm="*",
            replicates=2, strong_calls=1.5, rho=1e-07, note="line one\nline two",
        ),
    ]


class TestFileBytes:
    """The exact bytes ``write_rows`` writes, header and line ends included."""

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(_byte_rows(), path)
        assert path.read_bytes() == (
            b"kind,status,experiment,algorithm,n,k,gap,sigma,n_weak,weak_budget,w_min,w_max,"
            b"delta,seed,replicates,strong_calls,strong_calls_ci95,weak_pulls,ambiguous_initial,"
            b"ambiguous_final,eps_max,eps_max_ambiguous,m_eps,m_4eps,rho,correct,coverage_held,"
            b"wall_ms,note\r\n"
            b'run,ok,scaling_n,stc,10,2,0.05,,,,,,,3,,4,,,,,0.125,,,,,true,false,,"a ""quoted"", note"\r\n'
            b'summary,error,hardness,*,,,,,,,,,,,2,1.5,,,,,,,,,1e-07,,,,"line one\nline two"\r\n'
        )

    def test_jsonl_bytes(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_rows(_byte_rows(), path, fmt="jsonl")
        assert path.read_bytes() == (
            b'{"kind": "run", "status": "ok", "experiment": "scaling_n", "algorithm": "stc", '
            b'"n": 10, "k": 2, "gap": 0.05, "sigma": null, "n_weak": null, "weak_budget": null, '
            b'"w_min": null, "w_max": null, "delta": null, "seed": 3, "replicates": null, '
            b'"strong_calls": 4, "strong_calls_ci95": null, "weak_pulls": null, '
            b'"ambiguous_initial": null, "ambiguous_final": null, "eps_max": 0.125, '
            b'"eps_max_ambiguous": null, "m_eps": null, "m_4eps": null, "rho": null, '
            b'"correct": true, "coverage_held": false, "wall_ms": null, '
            b'"note": "a \\"quoted\\", note"}\n'
            b'{"kind": "summary", "status": "error", "experiment": "hardness", "algorithm": "*", '
            b'"n": null, "k": null, "gap": null, "sigma": null, "n_weak": null, '
            b'"weak_budget": null, "w_min": null, "w_max": null, "delta": null, "seed": null, '
            b'"replicates": 2, "strong_calls": 1.5, "strong_calls_ci95": null, '
            b'"weak_pulls": null, "ambiguous_initial": null, "ambiguous_final": null, '
            b'"eps_max": null, "eps_max_ambiguous": null, "m_eps": null, "m_4eps": null, '
            b'"rho": 1e-07, "correct": null, "coverage_held": null, "wall_ms": null, '
            b'"note": "line one\\nline two"}\n'
        )


class TestUnknownConfigKeys:
    def test_sweep_base_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="sigma"):
            SweepSpec(experiment="scaling_n", grid=[100], base={"sigma": 0.3})

    def test_verify_invariants_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="sigma"):
            verify_invariants(range(1), {"n": 150, "k": 15, "sigma": 0.3})

    def test_known_keys_still_accepted(self):
        spec = SweepSpec(experiment="scaling_n", grid=[100], base={"oracle.sigma": 0.3})
        assert spec.config()["oracle.sigma"] == 0.3
