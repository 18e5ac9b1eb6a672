"""One workload in one process: set up, time replicates, check every output.

Run by ``run.py``; not meant to be started by hand.  It prints ``READY`` once
every instance of the workload is generated, then one ``RESULT <json>`` line.
Between replicates it prints ``CALIBRATE`` and reads back the machine's
current slowdown, which ``run.py`` measures while this process waits (see
``speed``).
The program is reached only through the names ``topkcert`` exports and
``harness.run_replicate``, ``compute_metrics``, ``ExperimentRow`` and
``rows_to_csv_text``; every time is taken with the benchmark's own clock.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import topkcert as tc  # noqa: E402
from topkcert import harness  # noqa: E402

from tracing import (  # noqa: E402
    ATTRS, END, START, TimedStrongOracle, TimedWeakOracle, Tracer, layer_metrics, premise,
)
from workloads import Workload, instance_seed  # noqa: E402

if Path(tc.__file__).resolve().parent != ROOT / "src" / "topkcert":
    raise ImportError(f"topkcert imported from {tc.__file__}, not from this checkout")


@dataclass
class Fit:
    """One certifier's outcome; the fields ``harness.ReplicateResult`` has too."""

    algorithm: str
    report: Optional[tc.CertificationReport]
    stats: Optional[tc.OracleStats]
    error: Optional[str] = None
    span: int = -1


def generate_instances(workload: Workload, seed: int, tracer: Tracer) -> list:
    gap = workload.config()["gap"]
    instances = []
    for i in range(workload.replicate_set):
        spec = tc.GapInstanceSpec(n=workload.n, k=workload.k, gap=gap, seed=instance_seed(seed, i))
        with tracer.span("instances.generate"):
            instances.append(tc.generate_gap_instance(spec))
    return instances


def make_certifier(name: str, workload: Workload, cfg: dict):
    """The certifier ``run_replicate`` builds for `name` under `cfg`."""
    common = dict(
        delta=cfg["delta"],
        ci_method=cfg["ci.method"],
        ci_sigma=cfg["ci.sigma"] if cfg["ci.sigma"] is not None else cfg["oracle.sigma"],
        ci_range=cfg["ci.range"],
        delta_weak_fraction=cfg["delta_weak_fraction"],
    )
    if name == "ace_w":
        return tc.ALGORITHMS[name](
            workload.k, weak_budget=workload.weak_budget(), w_min=cfg["w_min"],
            w_max=cfg["w_max"], **common,
        )
    return tc.ALGORITHMS[name](workload.k, n_weak=cfg["n_weak"], **common)


def run_replicate(workload, cfg, instance, seed, tracer, traced):
    """Every algorithm on one instance with shared oracles, then metrics and rows.

    The same steps as ``harness.run_replicate`` followed by the sweep's row
    emission, done here so that each fit can be timed and, when traced, be
    handed timing oracles.
    """
    oracle_args = dict(noise=cfg["oracle.noise"], sigma=cfg["oracle.sigma"], seed=seed,
                       clamp=cfg["ci.clamp"])
    if traced:
        weak = TimedWeakOracle(instance, tracer=tracer, **oracle_args)
        strong = TimedStrongOracle(instance, cap=cfg["oracle.strong_cap"], tracer=tracer)
    else:
        weak = tc.WeakOracle(instance, **oracle_args)
        strong = tc.StrongOracle(instance, cap=cfg["oracle.strong_cap"])
    fits, metrics = [], []
    with tracer.span("replicate") as replicate_span:
        for name in workload.algorithms:
            certifier = make_certifier(name, workload, cfg)
            attrs = {"algo": name}
            with tracer.span("fit", attrs) as span:
                try:
                    certifier.fit(weak, strong)
                # A fit that raises is counted as failed; the run goes on.
                except Exception as err:  # noqa: BLE001
                    attrs["error"] = f"{type(err).__name__}: {err}"
            stats = tc.snapshot_and_reset(weak, strong)
            if "error" in attrs:
                fits.append(Fit(name, None, None, attrs["error"], span))
            else:
                fits.append(Fit(name, certifier.report_, stats, None, span))
                attrs["ambiguous_initial"] = certifier.report_.ambiguous_initial
        with tracer.span("harness.metrics"):
            truth = tc.true_top_k(instance)
            for fit in fits:
                metrics.append(
                    None if fit.error else harness.compute_metrics(fit.report, instance, truth)
                )
        with tracer.span("harness.emit"):
            rows = [_row(workload, cfg, seed, fit, m) for fit, m in zip(fits, metrics)]
            harness.rows_to_csv_text(rows)
    return fits, metrics, truth, replicate_span


def _row(workload, cfg, seed, fit, metrics):
    row = harness.ExperimentRow(
        experiment="scaling_n", algorithm=fit.algorithm, n=workload.n, k=workload.k,
        gap=cfg["gap"], sigma=cfg["oracle.sigma"], n_weak=cfg["n_weak"],
        weak_budget=workload.weak_budget(), w_min=cfg["w_min"], w_max=cfg["w_max"],
        delta=cfg["delta"], seed=seed,
    )
    if fit.error is not None:
        row.status, row.note = "error", fit.error
        return row
    report = fit.report
    row.strong_calls, row.weak_pulls = report.strong_calls, report.weak_pulls
    row.ambiguous_initial, row.ambiguous_final = report.ambiguous_initial, report.ambiguous_final
    row.eps_max, row.eps_max_ambiguous = report.eps_max, report.eps_max_ambiguous
    for key in ("m_eps", "m_4eps", "rho", "correct", "coverage_held"):
        setattr(row, key, metrics[key])
    return row


def gate(workload: Workload, fits, metrics, truth) -> list[str]:
    """Breaches of the certifiers' guarantees and cost identities on one replicate.

    Wrong sets on uncovered runs are allowed by the PAC guarantee and are
    counted by the caller, not reported here.
    """
    problems = []
    truth = tuple(int(x) for x in truth)
    ok = {fit.algorithm: fit for fit in fits if fit.error is None}
    for fit, m in zip(fits, metrics):
        if fit.error is not None:
            continue
        name, report, stats = fit.algorithm, fit.report, fit.stats
        if m["coverage_held"] and report.selected != truth:
            problems.append(f"{name}: wrong set on a covered run")
        if len(set(report.trace)) != len(report.trace):
            problems.append(f"{name}: repeated a strong query")
        if tuple(stats.strong_query_trace) != report.trace:
            problems.append(f"{name}: report trace differs from StrongOracle.trace")
        if report.strong_calls != len(report.trace):
            problems.append(f"{name}: strong_calls != len(trace)")
        if name == "stc" and report.strong_calls != report.ambiguous_initial:
            problems.append("stc: strong calls != |A0|")
        if name in ("ace", "ace_w"):
            a0 = set(int(x) for x in tc.ambiguous_set(report.weak_state, workload.k))
            if not set(report.trace) <= a0:
                problems.append(f"{name}: strong query outside A0")
        if name == "ace_w":
            budget = workload.weak_budget()
            w_max = workload.config()["w_max"] or budget
            if stats.weak_pulls_total > budget:
                problems.append("ace_w: weak pulls over budget")
            if int(stats.weak_pulls_per_item.max()) > w_max:
                problems.append("ace_w: weak pulls over w_max on an item")
    if "stc" in ok and "ace" in ok:
        if ok["ace"].report.strong_calls > ok["stc"].report.strong_calls:
            problems.append("ace used more strong calls than stc")
    return problems


def fingerprint(fits) -> bytes:
    """Digest of one replicate's oracle cost: selected sets, traces, weak pulls."""
    h = hashlib.sha256()
    for fit in fits:
        h.update(fit.algorithm.encode() + b"\0")
        if fit.error is not None:
            h.update(b"error\0" + fit.error.encode() + b"\0")
            continue
        h.update(np.asarray(fit.report.selected, dtype=np.int64).tobytes() + b"\0")
        h.update(np.asarray(fit.report.trace, dtype=np.int64).tobytes() + b"\0")
        h.update(str(fit.stats.weak_pulls_total).encode() + b"\0")
    return h.digest()


def check_against_harness(workload: Workload, seed: int) -> list[str]:
    """Hold the benchmark's replicate loop to ``harness.run_replicate``.

    Both run the workload's algorithms and configuration on one small
    instance, which is enough to catch a difference in how oracles and
    certifiers are built or how failures are caught.
    """
    small = workload.scaled(n=min(workload.n, 2000), k=min(workload.k, 20), replicate_set=1)
    cfg = small.config()
    instance = generate_instances(small, seed, Tracer())[0]
    ours = run_replicate(small, cfg, instance, instance_seed(seed, 0), Tracer(), traced=False)[0]
    theirs = harness.run_replicate(instance, instance_seed(seed, 0), small.algorithms, cfg)
    theirs = [Fit(res.algorithm, res.report, res.stats, res.error) for res in theirs]
    if fingerprint(ours) != fingerprint(theirs):
        return ["the replicate loop differs from harness.run_replicate"]
    return []


def span_ms(span) -> float:
    return (span[END] - span[START]) / 1e6


# Replicates shorter than this share the slowdown measurements around them.
CALIBRATE_EVERY_NS = 1_000_000_000


def calibrate() -> tuple[int, float]:
    """The machine's slowdown now, measured by run.py while this process waits."""
    print("CALIBRATE", flush=True)
    return time.perf_counter_ns(), float(sys.stdin.readline())


def replicate_factors(spans, replicate_spans, calibrations) -> dict[int, float]:
    """Replicate -> scale to nominal speed: 1 / the mean slowdown measured around it.

    Set-up spans (replicate -1) take the first measurement, made right after
    set-up.
    """
    times = [t for t, _ in calibrations]
    factors = {-1: 1 / calibrations[0][1]}
    for r, index in enumerate(replicate_spans):
        before = calibrations[bisect.bisect_right(times, spans[index][START]) - 1][1]
        after = calibrations[bisect.bisect_left(times, spans[index][END])][1]
        factors[r] = 2 / (before + after)
    return factors


def measure(workload: Workload, instances, seed: int, seconds: float, traced: bool, tracer: Tracer):
    """Run whole replicates until `seconds` have passed and the first pass is done."""
    cfg = workload.config()
    pass_size = workload.replicate_set
    problems: list[str] = []
    first_prints: list[bytes] = []
    strong_calls = weak_pulls = attempted = failed = completed = wrong = 0
    fit_spans = {name: [] for name in workload.algorithms}
    replicate_spans = []
    calibrations = [calibrate()]
    deadline = time.perf_counter() + seconds
    r = 0
    while r < pass_size or time.perf_counter() < deadline:
        if time.perf_counter_ns() - calibrations[-1][0] > CALIBRATE_EVERY_NS:
            calibrations.append(calibrate())
        i = r % pass_size
        tracer.replicate = r
        fits, metrics, truth, replicate_span = run_replicate(
            workload, cfg, instances[i], instance_seed(seed, i), tracer, traced
        )
        replicate_spans.append(replicate_span)
        for fit, m in zip(fits, metrics):
            fit_spans[fit.algorithm].append((r, fit.span))
            if m is not None:
                tracer.spans[fit.span][ATTRS]["rho"] = m["rho"]
        attempted += len(fits)
        failed += sum(fit.error is not None for fit in fits)
        if r < pass_size:
            problems += [f"replicate {i}: {p}" for p in gate(workload, fits, metrics, truth)]
            first_prints.append(fingerprint(fits))
            for fit in fits:
                if fit.error is None:
                    completed += 1
                    wrong += fit.report.selected != tuple(int(x) for x in truth)
                    strong_calls += fit.report.strong_calls
                    weak_pulls += fit.stats.weak_pulls_total
        elif fingerprint(fits) != first_prints[i]:
            problems.append(f"replicate {i}: pass {r // pass_size} differs from the first pass")
        del fits, metrics, truth
        r += 1
    calibrations.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems += check_against_harness(workload, seed)

    factors = replicate_factors(tracer.spans, replicate_spans, calibrations)
    wall_ms = [span_ms(tracer.spans[index]) for index in replicate_spans]
    replicate_ms = [ms * factors[r] for r, ms in enumerate(wall_ms)]
    out = {
        "replicates_per_s": (r / (sum(replicate_ms) / 1e3), "1/s", r),
        "replicate_ms_p50": (statistics.median(replicate_ms), "ms", r),
        "wall.replicates_per_s": (r / (sum(wall_ms) / 1e3), "1/s", r),
        "wall.replicate_ms_p50": (statistics.median(wall_ms), "ms", r),
        "machine.slowdown": (statistics.median(s for _, s in calibrations), "ratio",
                             len(calibrations)),
        "strong_calls": (strong_calls, "count", pass_size),
        "weak_pulls": (weak_pulls, "count", pass_size),
        "wrong_share": (wrong / completed if completed else 1.0, "ratio", completed),
        "failed_share": (failed / attempted, "ratio", attempted),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    # The highest percentile with at least ten samples beyond it.
    if r >= 200:
        out["replicate_ms_p95"] = (statistics.quantiles(replicate_ms, n=20)[18], "ms", r)
    for name, spans in fit_spans.items():
        samples = [span_ms(tracer.spans[index]) * factors[rep] for rep, index in spans]
        out[f"fit_ms.{name}"] = (statistics.median(samples), "ms", len(samples))
    digest = hashlib.sha256(b"".join(first_prints)).hexdigest()
    outcome = {"attempted": attempted, "failed": failed, "problems": problems, "digest": digest}
    return out, outcome, factors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = Workload.from_json(json.loads(args.workload))
    tracer = Tracer()
    instances = generate_instances(workload, args.seed, tracer)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    metrics, outcome, factors = measure(
        workload, instances, args.seed, args.seconds, bool(args.trace), tracer
    )
    if args.trace:
        traced = layer_metrics(tracer.spans, workload.algorithms, workload.replicate_set, factors)
        traced["trace.replicates_per_s"] = metrics["replicates_per_s"]
        outcome["premise"] = premise(workload.name, traced, tracer.spans)
        metrics = traced
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps({"metrics": metrics, **outcome}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
