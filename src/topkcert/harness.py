"""Experiment harness: seeded replicates, sweeps, metrics, CSV emission.

Every run row is a pure function of its seeds, so re-running a sweep with the
same configuration produces a byte-identical file.  Wall-clock timing is
therefore left blank unless explicitly requested.  Within one replicate all
algorithms share the weak oracle's counter-based substreams, which makes
strong-call comparisons exactly paired.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import time
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .certify import ALGORITHMS, CertificationReport
from .core import (
    Instance,
    IntervalState,
    _stable_argsort,
    ambiguous_set,
    coverage_event_holds,
    epsilon_max,
    near_tie_mass,
    true_top_k,
)
from .instances import GapInstanceSpec, PackingSpec, generate_gap_instance, generate_packing_instance
from .oracles import BudgetExceededError, OracleStats, StrongOracle, WeakOracle, snapshot_and_reset
from .validation import check_int

# each experiment's swept config key and the type a grid point is cast to
_SWEPT_KEYS = {
    "scaling_n": ("n", int),
    "scaling_k": ("k", int),
    "hardness": ("gap", float),
    "lower_bound": ("m", int),
    "coverage": ("n", int),
}
EXPERIMENTS = tuple(_SWEPT_KEYS)
# the certifiers a sweep and the invariant battery run unless told otherwise
DEFAULT_ALGORITHMS = ("stc", "ace", "ace_w", "ta")

# Every config key with its type and default.  BASE_DEFAULTS and the CLI's
# coercion, TOPKCERT_* environment names and flags all derive from it.
CONFIG_KEYS = {
    "n": (int, 1000),
    "k": (int, 100),
    "gap": (float, 0.05),
    "delta": (float, 0.05),
    "delta_weak_fraction": (float, 1.0),
    "n_weak": (int, 12),
    "weak_budget": (int, None),
    "w_min": (int, 6),
    "w_max": (int, None),
    "near_ties": (int, None),
    "tail_fraction": (float, 0.35),
    "oracle.noise": (str, "gaussian"),
    "oracle.sigma": (float, 0.1),
    "oracle.seed": (int, 0),
    "oracle.strong_cap": (int, None),
    "ci.method": (str, "subgaussian"),
    "ci.sigma": (float, None),
    "ci.range": (float, 1.0),
    "ci.clamp": (bool, False),
}

BASE_DEFAULTS = {key: default for key, (_, default) in CONFIG_KEYS.items()}


def _with_defaults(cfg: Optional[dict]) -> dict:
    """BASE_DEFAULTS overridden by cfg; a key not in CONFIG_KEYS raises ValueError."""
    unknown = sorted(set(cfg or ()) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; known keys are {list(CONFIG_KEYS)}")
    return {**BASE_DEFAULTS, **(cfg or {})}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class ExperimentRow:
    """One CSV record: either a seeded run, a summary, or an error marker."""

    kind: str = "run"
    status: str = "ok"
    experiment: str = ""
    algorithm: str = ""
    n: Optional[int] = None
    k: Optional[int] = None
    gap: Optional[float] = None
    sigma: Optional[float] = None
    n_weak: Optional[int] = None
    weak_budget: Optional[int] = None
    w_min: Optional[int] = None
    w_max: Optional[int] = None
    delta: Optional[float] = None
    seed: Optional[int] = None
    replicates: Optional[int] = None
    strong_calls: Optional[float] = None
    strong_calls_ci95: Optional[float] = None
    weak_pulls: Optional[float] = None
    ambiguous_initial: Optional[float] = None
    ambiguous_final: Optional[float] = None
    eps_max: Optional[float] = None
    eps_max_ambiguous: Optional[float] = None
    m_eps: Optional[float] = None
    m_4eps: Optional[float] = None
    rho: Optional[float] = None
    correct: Optional[object] = None
    coverage_held: Optional[object] = None
    wall_ms: Optional[float] = None
    note: str = ""

    def record(self) -> list[str]:
        return [_fmt(getattr(self, column)) for column in COLUMNS]

    def as_dict(self) -> dict:
        return {column: getattr(self, column) for column in COLUMNS}


COLUMNS = tuple(f.name for f in fields(ExperimentRow))
# the report fields a run row copies by name
_REPORT_COLUMNS = tuple(f.name for f in fields(CertificationReport) if f.name in COLUMNS)


def compute_metrics(report: CertificationReport, instance: Instance, truth=None) -> dict:
    """Fill ground-truth metrics for one report.

    Asserts the ambiguity bound |A0| <= m(4 eps_max) whenever the coverage
    event holds; a violation would mean an implementation bug, not bad luck.
    """
    if truth is None:
        truth = true_top_k(instance)
    correct = tuple(int(x) for x in truth) == report.selected
    coverage = coverage_event_holds(instance, report.weak_state)
    m_eps = near_tie_mass(instance, report.eps_max)
    m_4eps = near_tie_mass(instance, 4.0 * report.eps_max)
    # Lemma 1's bound, on the A0 and eps_max the report already holds
    if coverage and report.ambiguous_initial > m_4eps:
        raise RuntimeError("initial ambiguous set exceeds m(4 eps_max) on a covered run")
    return {
        "correct": correct,
        "coverage_held": coverage,
        "m_eps": m_eps,
        "m_4eps": m_4eps,
        "rho": report.strong_calls / m_eps,
    }


def gap_instance(cfg: dict, seed: int) -> Instance:
    """The gap instance of cfg's ``n``, ``k``, ``gap``, ``near_ties`` and ``tail_fraction``."""
    keys = ("n", "k", "gap", "near_ties", "tail_fraction")
    return generate_gap_instance(GapInstanceSpec(seed=seed, **{key: cfg[key] for key in keys}))


def _weak_budget(cfg: dict, n: int) -> int:
    """The adaptive weak phase's budget: ``weak_budget``, else ``n_weak`` pulls per item."""
    return cfg["weak_budget"] if cfg["weak_budget"] is not None else cfg["n_weak"] * n


def _weak_oracle(instance: Instance, seed: int, cfg: dict, kind=WeakOracle) -> WeakOracle:
    return kind(
        instance, noise=cfg["oracle.noise"], sigma=cfg["oracle.sigma"], seed=seed, clamp=cfg["ci.clamp"]
    )


def _certifier(name: str, k: int, n: int, cfg: dict):
    if name == "brute":
        return ALGORITHMS[name](k)
    common = dict(
        delta=cfg["delta"],
        ci_method=cfg["ci.method"],
        # the interval scale defaults to the weak oracle's noise scale
        ci_sigma=cfg["ci.sigma"] if cfg["ci.sigma"] is not None else cfg["oracle.sigma"],
        ci_range=cfg["ci.range"],
        delta_weak_fraction=cfg["delta_weak_fraction"],
    )
    if name == "ace_w":
        return ALGORITHMS[name](
            k, weak_budget=_weak_budget(cfg, n), w_min=cfg["w_min"], w_max=cfg["w_max"], **common
        )
    return ALGORITHMS[name](k, n_weak=cfg["n_weak"], **common)


@dataclass
class ReplicateResult:
    algorithm: str
    report: Optional[CertificationReport]
    stats: Optional[OracleStats]
    wall_ms: Optional[float]
    error: Optional[str] = None


def run_replicate(
    instance: Instance,
    seed: int,
    algorithms: Sequence[str],
    cfg: dict,
    initial_state=None,
    timing: bool = False,
) -> list[ReplicateResult]:
    """Run several algorithms on one instance with shared weak substreams.

    A config the oracles reject (``ValueError`` or ``TypeError``), or that a
    certifier rejects with ``ValueError`` before its first pull or query,
    becomes an error result.  A ``ValueError`` raised after oracle access is
    an algorithm fault and propagates.
    """
    try:
        weak = _weak_oracle(instance, seed, cfg) if initial_state is None else None
        strong = StrongOracle(instance, cap=cfg["oracle.strong_cap"])
    except (ValueError, TypeError) as err:
        return [ReplicateResult(name, None, None, None, error=str(err)) for name in algorithms]
    results = []
    for name in algorithms:
        certifier = _certifier(name, instance.k, instance.n, cfg)
        start = time.perf_counter()
        try:
            certifier.fit(weak, strong, initial_state=initial_state)
        except (BudgetExceededError, ValueError) as err:
            accessed = strong.calls or (weak is not None and weak.total_pulls)
            if isinstance(err, ValueError) and accessed:
                raise
            snapshot_and_reset(weak, strong)
            results.append(ReplicateResult(name, None, None, None, error=str(err)))
            continue
        wall = (time.perf_counter() - start) * 1e3
        stats = snapshot_and_reset(weak, strong)
        results.append(ReplicateResult(name, certifier.report_, stats, wall if timing else None))
    return results


@dataclass
class SweepSpec:
    """A parameter sweep: one experiment, a grid, seeded replicates."""

    experiment: str
    grid: Sequence
    replicates: int = 10
    base: dict = field(default_factory=dict)
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS
    base_seed: int = 0
    timing: bool = False

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        check_int(self.replicates, "replicates", minimum=1)
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        self.config()  # rejects an unknown config key now, not at run time

    def config(self) -> dict:
        return _with_defaults(self.base)


def _point_instance(spec: SweepSpec, cfg: dict, seed: int):
    if spec.experiment == "lower_bound":
        pack = PackingSpec(n=cfg["n"], k=cfg["k"], m=cfg["m"])
        return generate_packing_instance(pack, seed=seed)
    return gap_instance(cfg, seed), None


def _config_row(experiment, algorithm, cfg, seed, instance, **values) -> ExperimentRow:
    """A run row holding the config fields every run row reports, plus `values`."""
    return ExperimentRow(
        experiment=experiment, algorithm=algorithm, n=instance.n, k=instance.k, gap=cfg["gap"],
        sigma=cfg["oracle.sigma"], n_weak=cfg["n_weak"], delta=cfg["delta"], seed=seed, **values
    )


def run_row(experiment: str, cfg, seed, result: ReplicateResult, instance, truth) -> ExperimentRow:
    """The CSV row of one algorithm's run, ground-truth metrics included."""
    values = dict(
        weak_budget=_weak_budget(cfg, instance.n), w_min=cfg["w_min"], w_max=cfg["w_max"],
        wall_ms=result.wall_ms,
    )
    if result.error is not None:
        values.update(status="error", note=result.error)
    else:
        report = result.report
        values.update({name: getattr(report, name) for name in _REPORT_COLUMNS})
        values.update(compute_metrics(report, instance, truth))
    return _config_row(experiment, result.algorithm, cfg, seed, instance, **values)


def _coverage_row(cfg, seed, instance) -> ExperimentRow:
    """The uniform weak phase's coverage row, or an error row for a config
    the oracle or the phase rejects before any pull, as in ``run_replicate``."""
    weak = None
    try:
        weak = _weak_oracle(instance, seed, cfg)
        # the uniform weak phase every fixed-interval certifier runs
        certifier = _certifier("stc", instance.k, instance.n, cfg)
        state = certifier._weak_phase(weak, None, instance.n, instance.k)
    except (ValueError, TypeError) as err:
        if weak is not None and weak.total_pulls:
            raise
        return _config_row("coverage", "coverage", cfg, seed, instance, status="error", note=str(err))
    return _config_row(
        "coverage", "coverage", cfg, seed, instance, strong_calls=0, weak_pulls=weak.total_pulls,
        eps_max=epsilon_max(state), coverage_held=coverage_event_holds(instance, state),
    )


def run_sweep(spec: SweepSpec) -> list[ExperimentRow]:
    """Run the sweep and return run rows followed by per-point summaries."""
    rows: list[ExperimentRow] = []
    run_rows: dict[tuple, list[ExperimentRow]] = {}
    key, kind = _SWEPT_KEYS[spec.experiment]
    for point in spec.grid:
        cfg = {**spec.config(), key: kind(point)}
        for r in range(spec.replicates):
            seed = spec.base_seed + r
            try:
                instance, initial_state = _point_instance(spec, cfg, seed)
            except (ValueError, TypeError) as err:
                rows.append(ExperimentRow(status="error", experiment=spec.experiment,
                                          algorithm="*", seed=seed, note=str(err)))
                continue
            if spec.experiment == "coverage":
                point_rows = [_coverage_row(cfg, seed, instance)]
            else:
                truth = true_top_k(instance)
                results = run_replicate(
                    instance,
                    seed,
                    spec.algorithms,
                    cfg,
                    initial_state=initial_state,
                    timing=spec.timing,
                )
                point_rows = [
                    run_row(spec.experiment, cfg, seed, result, instance, truth)
                    for result in results
                ]
            rows.extend(point_rows)
            for row in point_rows:
                run_rows.setdefault((point, row.algorithm), []).append(row)
    for (point, algorithm), group in run_rows.items():
        rows.append(_summary_row(spec, point, algorithm, group))
    return rows


def _summary_row(spec: SweepSpec, point, algorithm: str, group: list[ExperimentRow]) -> ExperimentRow:
    ok = [row for row in group if row.status == "ok"]
    row = ExperimentRow(
        kind="summary",
        experiment=spec.experiment,
        algorithm=algorithm,
        replicates=len(group),
        note=f"point={point}",
    )
    if not ok:
        row.status = "error"
        return row
    template = ok[0]
    for name in ("n", "k", "gap", "sigma", "n_weak", "weak_budget", "w_min", "w_max", "delta"):
        setattr(row, name, getattr(template, name))
    calls = np.asarray([r.strong_calls for r in ok], dtype=np.float64)
    row.strong_calls = float(calls.mean())
    if calls.size > 1:
        row.strong_calls_ci95 = float(1.96 * calls.std(ddof=1) / np.sqrt(calls.size))
    else:
        row.strong_calls_ci95 = 0.0
    row.weak_pulls = float(np.mean([r.weak_pulls for r in ok]))
    if ok[0].rho is not None:
        row.rho = float(np.mean([r.rho for r in ok]))
        row.ambiguous_initial = float(np.mean([r.ambiguous_initial for r in ok]))
        row.eps_max = float(np.mean([r.eps_max for r in ok]))
    if ok[0].correct is not None:
        row.correct = float(np.mean([1.0 if r.correct else 0.0 for r in ok]))
    if ok[0].coverage_held is not None:
        row.coverage_held = float(np.mean([1.0 if r.coverage_held else 0.0 for r in ok]))
    return row


def _csv_text(rows: Sequence[ExperimentRow], line_end: str) -> str:
    """The header and one RFC-4180 record per row, each ended by `line_end`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=line_end)
    writer.writerow(COLUMNS)
    writer.writerows(row.record() for row in rows)
    return buffer.getvalue()


def write_rows(rows: Sequence[ExperimentRow], path, fmt: str = "csv") -> None:
    """Write rows as CSV (RFC-4180 quoting, CRLF line ends) or JSON lines."""
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            handle.write(_csv_text(rows, "\r\n"))
    elif fmt == "jsonl":
        with open(path, "w") as handle:
            handle.writelines(json.dumps(row.as_dict()) + "\n" for row in rows)
    else:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")


def rows_to_csv_text(rows: Sequence[ExperimentRow]) -> str:
    return _csv_text(rows, "\n")


# the certifiers whose weak phase is the uniform screen of n_weak pulls per item
_SCREENED = ("stc", "ace", "ta")


def _ta_trace(state: IntervalState, values: np.ndarray, k: int) -> tuple[int, ...]:
    """The trace of ta's stopping rule tested after every query: the shortest
    prefix of the items by (-estimate, index) whose k-th largest value is at
    least every weak upper bound after it, or every item."""
    order = _stable_argsort(-state.point_estimates())
    upper = state.upper[order]
    after = np.append(np.maximum.accumulate(upper[:0:-1])[::-1], -np.inf).tolist()
    order = order.tolist()
    top: list[float] = []
    for q, x in enumerate(order, 1):
        heapq.heappush(top, float(values[x]))
        if len(top) > k:
            heapq.heappop(top)
        if q >= k and top[0] >= after[q - 1]:
            return tuple(order[:q])
    return tuple(order)


class _PulledWeakOracle(WeakOracle):
    """The weak oracle, with a ``pull`` of its own: ``ace_w`` pulls each of its
    planned batches from it through ``pull_many`` and compares the values with
    its plan's draws, where it charges the plain oracle by stream position."""

    def pull(self, x: int) -> float:
        return super().pull(x)


def _fit_bytes(report: CertificationReport, weak_pulls_total: int, weak_pulls_per_item) -> tuple:
    """Every field of a report, its weak state's arrays and the weak oracle's
    counters, in a form equal for two fits exactly when they match bit for bit."""
    state = report.weak_state
    scalars = [getattr(report, f.name) for f in fields(report) if f.name != "weak_state"]
    arrays = (state.lower, state.upper, state.pulls, state.means, np.asarray(weak_pulls_per_item))
    return (repr((scalars, state.conflicts, weak_pulls_total)),
            *(None if a is None else (a.dtype.str, a.tobytes()) for a in arrays))


def _pulled_fit_problems(instance: Instance, seed: int, cfg: dict, result: ReplicateResult) -> list[str]:
    """``ace_w`` fitted again through ``_PulledWeakOracle``: a problem unless the
    fit matches `result`, ``ace_w``'s fit on the plain oracle, bit for bit."""
    weak = _weak_oracle(instance, seed, cfg, _PulledWeakOracle)
    certifier = _certifier("ace_w", instance.k, instance.n, cfg)
    try:
        certifier.fit(weak, StrongOracle(instance, cap=cfg["oracle.strong_cap"]))
    except RuntimeError as err:
        return [f"seed {seed}: ace_w failed with its weak pulls drawn and compared: {err}"]
    pulled = _fit_bytes(certifier.report_, weak.total_pulls, weak.pulls_per_item)
    stats = result.stats
    if pulled != _fit_bytes(result.report, stats.weak_pulls_total, stats.weak_pulls_per_item):
        return [f"seed {seed}: ace_w's charged and drawn-and-compared weak pulls differ"]
    return []


def verify_invariants(seeds: Sequence[int], cfg: Optional[dict] = None) -> list[str]:
    """Run the structural invariant battery over a seed range.

    Checks, per seed: one-shot strong calls equal the ambiguous-set size;
    adaptive strong calls never exceed one-shot calls and stay inside the
    initial ambiguous set; every uniform-screen certifier reports
    bit-identical weak bounds; traces are duplicate-free; ta's trace is the
    shortest prefix of its order at which its stopping rule fires; the
    adaptive weak phase respects its budget and per-item cap, and fitting it
    again with each planned batch drawn and compared, not charged by stream
    position, gives the same report and oracle counters bit for bit; covered
    runs recover the exact top-k and satisfy the ambiguity bound.  Returns
    human-readable problem strings; empty means all invariants hold.
    """
    full = _with_defaults(cfg)
    problems: list[str] = []
    for seed in seeds:
        instance = gap_instance(full, seed)
        truth = tuple(int(x) for x in true_top_k(instance))
        results = run_replicate(instance, seed, DEFAULT_ALGORITHMS, full)
        by_name = {res.algorithm: res for res in results}
        for res in results:
            if res.error is not None:
                problems.append(f"seed {seed}: {res.algorithm} failed: {res.error}")
                continue
            report = res.report
            if len(set(report.trace)) != len(report.trace):
                problems.append(f"seed {seed}: {res.algorithm} repeated a strong query")
            if report.strong_calls != len(report.trace):
                problems.append(f"seed {seed}: {res.algorithm} miscounted strong calls")
            metrics = compute_metrics(report, instance, np.asarray(truth))
            if metrics["coverage_held"] and report.selected != truth:
                problems.append(f"seed {seed}: {res.algorithm} wrong set on a covered run")
        stc_res, ace_res = by_name.get("stc"), by_name.get("ace")
        if stc_res and stc_res.report is not None:
            if stc_res.report.strong_calls != stc_res.report.ambiguous_initial:
                problems.append(f"seed {seed}: one-shot strong calls != |ambiguous set|")
        if stc_res and ace_res and stc_res.report is not None and ace_res.report is not None:
            if ace_res.report.strong_calls > stc_res.report.strong_calls:
                problems.append(f"seed {seed}: adaptive used more strong calls than one-shot")
            amb0 = set(int(x) for x in ambiguous_set(ace_res.report.weak_state, instance.k))
            if not set(ace_res.report.trace) <= amb0:
                problems.append(f"seed {seed}: adaptive queried outside the ambiguous set")
        screens = {
            (res.report.weak_state.lower.tobytes(), res.report.weak_state.upper.tobytes())
            for res in results
            if res.algorithm in _SCREENED and res.report is not None
        }
        if len(screens) > 1:
            problems.append(f"seed {seed}: uniform-screen certifiers report different weak bounds")
        ta_res = by_name.get("ta")
        if ta_res and ta_res.report is not None:
            report = ta_res.report
            if report.trace != _ta_trace(report.weak_state, instance.values, instance.k):
                problems.append(f"seed {seed}: ta's trace is not where its stopping rule first fires")
        acew_res = by_name.get("ace_w")
        if acew_res and acew_res.report is not None and acew_res.stats is not None:
            budget = _weak_budget(full, instance.n)
            w_max = full["w_max"] if full["w_max"] is not None else budget
            if acew_res.stats.weak_pulls_total > budget:
                problems.append(f"seed {seed}: adaptive weak phase overspent its budget")
            if acew_res.stats.weak_pulls_per_item.max() > w_max:
                problems.append(f"seed {seed}: adaptive weak phase exceeded the per-item cap")
            problems += _pulled_fit_problems(instance, seed, full, acew_res)
    return problems
