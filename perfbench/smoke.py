"""Smoke test of the benchmark itself, on workloads scaled down to run in seconds.

    python3 perfbench/smoke.py

Checks that every end-to-end and per-layer metric is emitted with its unit,
that the JSON result line carries what BENCHMARK.json lists, that the traced
run writes its spans, and that the correctness gate trips on a report whose
selected set has been tampered with.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import run
from workloads import WORKLOADS

# Small enough to take seconds; replicates_1e3 keeps 200 replicates in its
# pass so that the tail percentile is reported.
SCALED = {
    "replicates_1e3": WORKLOADS["replicates_1e3"].scaled(n=100, k=5, replicate_set=200),
    "screen_1e6": WORKLOADS["screen_1e6"].scaled(n=20_000, k=20, replicate_set=1),
    "adaptive_5e4": WORKLOADS["adaptive_5e4"].scaled(n=2000, k=20, replicate_set=1),
    "uninformative_1e4": WORKLOADS["uninformative_1e4"].scaled(n=500, k=5, replicate_set=1),
}

ADAPTIVE = ("ace", "ace_w")


def end_to_end_units(workload) -> dict:
    units = {
        "setup_s": "s", "replicates_per_s": "1/s", "replicate_ms_p50": "ms",
        "strong_calls": "count", "weak_pulls": "count", "wrong_share": "ratio",
        "failed_share": "ratio", "peak_rss_mb": "MB", "wall.setup_s": "s",
        "wall.replicates_per_s": "1/s", "wall.replicate_ms_p50": "ms", "machine.slowdown": "ratio",
    }
    if workload.name == "replicates_1e3":
        units["replicate_ms_p95"] = "ms"
    units.update({f"fit_ms.{algo}": "ms" for algo in workload.algorithms})
    return units


def per_layer_units(workload) -> dict:
    units = {
        "instances.generate_s": "s", "oracles.pull_all_s": "s", "oracles.pull_all_calls": "count",
        "oracles.pull_all_cache_hit_ratio": "ratio", "oracles.pull_all_mb_computed": "MB",
        "oracles.pull_calls": "count", "oracles.pull_s": "s", "oracles.query_calls": "count",
        "oracles.query_s": "s", "harness.replicate_s": "s", "harness.metrics_s": "s",
        "harness.emit_s": "s", "trace.replicates_per_s": "1/s",
    }
    for phase in ("weak_phase_s", "screen_self_s", "strong_loop_s", "report_s"):
        units[f"certify.{phase}"] = "s"
        units.update({f"certify.{algo}.{phase}": "s" for algo in workload.algorithms})
    units["certify.us_per_strong_call"] = "us"
    for algo in workload.algorithms:
        units[f"certify.{algo}.strong_calls"] = "count"
        units[f"certify.{algo}.ambiguous_initial"] = "count"
        units[f"certify.{algo}.calls_per_ambiguous"] = "ratio"
        units[f"certify.{algo}.rho"] = "ratio"
        if algo in ADAPTIVE:
            units[f"certify.{algo}.us_per_strong_call"] = "us"
    if "ace_w" in workload.algorithms:
        units["certify.ace_w.us_per_adaptive_pull"] = "us"
    return units


def check_metrics(workload) -> None:
    for trace, expected in ((0, end_to_end_units(workload)), (1, per_layer_units(workload))):
        result = run.run_workload(workload, seed=0, seconds=0.5, trace=trace,
                                  deadline=time.monotonic() + 120, setups=2)
        assert not result["problems"], result["problems"]
        emitted = {name: unit for name, (_, unit, _) in result["metrics"].items()}
        assert emitted == expected, (workload.name, trace, emitted, expected)
        line = run.result_line(result, trace)
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert set(line["metrics"]) == set(run.declared(trace))
        if trace:
            assert (run.ROOT / result["spans"]).stat().st_size > 0


def check_gate_trips() -> None:
    import worker

    workload = SCALED["replicates_1e3"]
    cfg = workload.config()
    tracer = worker.Tracer()
    for i, instance in enumerate(worker.generate_instances(workload, 0, tracer)):
        fits, metrics, truth, _ = worker.run_replicate(
            workload, cfg, instance, worker.instance_seed(0, i), tracer, traced=False
        )
        assert worker.gate(workload, fits, metrics, truth) == []
        if not metrics[0]["coverage_held"]:
            continue
        selected = set(fits[0].report.selected)
        outsider = next(x for x in range(workload.n) if x not in selected)
        tampered = tuple(sorted((selected - {min(selected)}) | {outsider}))
        fits[0] = dataclasses.replace(fits[0], report=dataclasses.replace(fits[0].report,
                                                                          selected=tampered))
        problems = worker.gate(workload, fits, metrics, truth)
        assert problems == [f"{fits[0].algorithm}: wrong set on a covered run"], problems
        return
    raise AssertionError("no covered replicate to tamper with")


def main() -> int:
    for workload in SCALED.values():
        check_metrics(workload)
        print(f"ok: {workload.name} emits every metric with its unit")
    check_gate_trips()
    print("ok: the correctness gate trips on a tampered selected set")
    return 0


if __name__ == "__main__":
    sys.exit(main())
