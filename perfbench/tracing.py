"""Spans recorded around the program's layers, and the per-layer metrics they give.

A span is ``(name, replicate, start_ns, end_ns, parent, attrs)``; ``parent``
is the index of the enclosing span in the tracer's list.  Spans are kept in
memory and written out once the run ends.

Scalar weak pulls and strong queries are too many to keep one span each
(3e5 pulls in one ace_w fit at n = 5e4), so each is counted into one
aggregate span per kind under the enclosing span: its start is the first
call's start, its end the last call's end, and ``attrs`` holds the call count
and the busy time spent inside the calls.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np
from topkcert import StrongOracle, WeakOracle

NAME, REPLICATE, START, END, PARENT, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.replicate = -1
        # Call counters of the innermost open span: kind -> [calls, busy_ns,
        # first start, last end].  Oracles update them in place.
        self.counters: dict = {}
        self._open: list[tuple[int, dict]] = []

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Record the enclosed block and yield its index in ``spans``.

        The body may add to `attrs`, which the span keeps.
        """
        attrs = {} if attrs is None else attrs
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1][0] if self._open else None
        counters = self.counters = {}
        self._open.append((index, counters))
        start = perf_counter_ns()
        try:
            yield index
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.counters = self._open[-1][1] if self._open else {}
            self.spans[index] = (name, self.replicate, start, end, parent, attrs)
            for kind, (calls, busy, first, last) in counters.items():
                self.spans.append(
                    (kind, self.replicate, first, last, index, {"calls": calls, "busy_ns": busy})
                )

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, replicate, start, end, parent, attrs in self.spans:
                record = {"name": name, "replicate": replicate, "start_ns": start,
                          "end_ns": end, "parent": parent, **attrs}
                handle.write(json.dumps(record) + "\n")


def _count(tracer: Tracer, kind: str, start: int, end: int) -> None:
    entry = tracer.counters.get(kind)
    if entry is None:
        tracer.counters[kind] = [1, end - start, start, end]
    else:
        entry[0] += 1
        entry[1] += end - start
        entry[3] = end


_weak_pull = WeakOracle.pull
_strong_query = StrongOracle.query


class TimedWeakOracle(WeakOracle):
    """A WeakOracle that records every pull and pull_all on a tracer."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer
        self._blocks: list[np.ndarray] = []

    def pull(self, x: int) -> float:
        start = perf_counter_ns()
        value = _weak_pull(self, x)
        end = perf_counter_ns()
        # Inlined _count: this runs once per scalar pull.
        entry = self._tracer.counters.get("oracles.pull")
        if entry is None:
            _count(self._tracer, "oracles.pull", start, end)
        else:
            entry[0] += 1
            entry[1] += end - start
            entry[3] = end
        return value

    def pull_all(self, count: int) -> np.ndarray:
        attrs = {"n": self.n_items, "count": count}
        with self._tracer.span("oracles.pull_all", attrs):
            block = WeakOracle.pull_all(self, count)
        # A block that shares memory with one returned before was served from
        # the oracle's cache rather than computed.
        attrs["computed"] = not any(np.may_share_memory(block, seen) for seen in self._blocks)
        self._blocks.append(block)
        return block


class TimedStrongOracle(StrongOracle):
    """A StrongOracle that records every query on a tracer."""

    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def query(self, x: int) -> float:
        start = perf_counter_ns()
        value = _strong_query(self, x)
        _count(self._tracer, "oracles.query", start, perf_counter_ns())
        return value


def _median(values):
    return statistics.median(values) if values else None


def layer_metrics(spans: list, algorithms, pass_size: int, factors: dict) -> dict:
    """Per-layer metrics: name -> (value, unit, samples).

    Times are medians per replicate (per fit for ``certify.<algo>.*``), each
    scaled by its replicate's entry in `factors` to nominal machine speed (see
    ``speed``); counts and ratios are totals over the first pass, like the
    end-to-end counts.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    replicates = sorted({s[REPLICATE] for s in spans if s[NAME] == "replicate"})
    per_rep = {r: {} for r in replicates}

    def add(replicate, key, value):
        per_rep[replicate][key] = per_rep[replicate].get(key, 0.0) + value

    first_pass = {
        "pull_all_calls": 0, "pull_all_hits": 0, "mb_computed": 0.0, "pull_calls": 0,
        "query_calls": 0,
    }
    fits = {algo: [] for algo in algorithms}
    for index, span in enumerate(spans):
        name, rep = span[NAME], span[REPLICATE]
        scale = factors[rep] / 1e9
        seconds = (span[END] - span[START]) * scale
        in_first = 0 <= rep < pass_size
        if name == "oracles.pull_all":
            add(rep, "pull_all_s", seconds)
            if in_first:
                first_pass["pull_all_calls"] += 1
                if span[ATTRS]["computed"]:
                    first_pass["mb_computed"] += span[ATTRS]["n"] * span[ATTRS]["count"] * 8 / 1e6
                else:
                    first_pass["pull_all_hits"] += 1
        elif name in ("oracles.pull", "oracles.query"):
            kind = name.split(".")[1]
            add(rep, f"{kind}_s", span[ATTRS]["busy_ns"] * scale)
            if in_first:
                first_pass[f"{kind}_calls"] += span[ATTRS]["calls"]
        elif name in ("replicate", "harness.metrics", "harness.emit"):
            add(rep, name.split(".")[-1], seconds)
        elif name == "fit":
            fits[span[ATTRS]["algo"]].append(
                _fit_phases(span, children.get(index, []), in_first, scale)
            )

    out: dict = {}

    def put(name, value, unit, samples):
        if value is not None:
            out[name] = (value, unit, samples)

    generate = [(s[END] - s[START]) * factors[s[REPLICATE]] / 1e9
                for s in spans if s[NAME] == "instances.generate"]
    put("instances.generate_s", _median(generate), "s", len(generate))
    reps = len(replicates)
    for key, metric in (
        ("pull_all_s", "oracles.pull_all_s"),
        ("pull_s", "oracles.pull_s"),
        ("query_s", "oracles.query_s"),
        ("replicate", "harness.replicate_s"),
        ("metrics", "harness.metrics_s"),
        ("emit", "harness.emit_s"),
    ):
        put(metric, _median([per_rep[r].get(key, 0.0) for r in replicates]), "s", reps)
    calls = first_pass["pull_all_calls"]
    put("oracles.pull_all_calls", calls, "count", pass_size)
    put("oracles.pull_all_cache_hit_ratio", first_pass["pull_all_hits"] / calls if calls else None,
        "ratio", calls)
    put("oracles.pull_all_mb_computed", first_pass["mb_computed"], "MB", pass_size)
    put("oracles.pull_calls", first_pass["pull_calls"], "count", pass_size)
    put("oracles.query_calls", first_pass["query_calls"], "count", pass_size)

    # Phases summed over the fits of one replicate: what the certify layer
    # costs a replicate, whichever algorithms the workload runs.
    for phase in ("weak_phase_s", "screen_self_s", "strong_loop_s", "report_s"):
        sums: dict[int, float] = {}
        for algo_fits in fits.values():
            for fit in algo_fits:
                sums[fit["replicate"]] = sums.get(fit["replicate"], 0.0) + fit[phase]
        put(f"certify.{phase}", _median(list(sums.values())), "s", len(sums))
    loops = [f for algo_fits in fits.values() for f in algo_fits]
    total_calls = sum(f["strong_calls"] for f in loops)
    if total_calls:
        put("certify.us_per_strong_call",
            sum(f["strong_loop_s"] for f in loops) / total_calls * 1e6, "us", len(loops))

    for algo, algo_fits in fits.items():
        if not algo_fits:
            continue
        prefix = f"certify.{algo}"
        for phase in ("weak_phase_s", "screen_self_s", "strong_loop_s", "report_s"):
            put(f"{prefix}.{phase}", _median([f[phase] for f in algo_fits]), "s", len(algo_fits))
        first = [f for f in algo_fits if f["first_pass"] and f["ok"]]
        calls = sum(f["strong_calls"] for f in first)
        ambiguous = sum(f["ambiguous_initial"] for f in first)
        put(f"{prefix}.strong_calls", calls, "count", len(first))
        put(f"{prefix}.ambiguous_initial", ambiguous, "count", len(first))
        put(f"{prefix}.calls_per_ambiguous", calls / ambiguous if ambiguous else None, "ratio",
            len(first))
        put(f"{prefix}.rho", _median([f["rho"] for f in first]), "ratio", len(first))
        if algo in ("ace", "ace_w"):
            per_call = [f["strong_loop_s"] / f["strong_calls"] * 1e6 for f in algo_fits
                        if f["strong_calls"]]
            put(f"{prefix}.us_per_strong_call", _median(per_call), "us", len(per_call))
        if algo == "ace_w":
            per_pull = [(f["weak_phase_s"] - f["pull_all_s"]) / f["pull_calls"] * 1e6
                        for f in algo_fits if f["pull_calls"]]
            put(f"{prefix}.us_per_adaptive_pull", _median(per_pull), "us", len(per_pull))
    return out


def _fit_phases(fit, kids, first_pass: bool, scale: float) -> dict:
    """Split one fit span at its first and last strong query; `scale` turns ns into s."""
    start, end = fit[START], fit[END]
    pull_all_s = sum((k[END] - k[START]) * scale for k in kids if k[NAME] == "oracles.pull_all")
    pulls = [k for k in kids if k[NAME] == "oracles.pull"]
    queries = [k for k in kids if k[NAME] == "oracles.query"]
    first_query = queries[0][START] if queries else end
    last_query = queries[0][END] if queries else end
    weak_phase_s = (first_query - start) * scale
    attrs = fit[ATTRS]
    return {
        "replicate": fit[REPLICATE],
        "first_pass": first_pass,
        "ok": attrs.get("error") is None,
        "weak_phase_s": weak_phase_s,
        "screen_self_s": weak_phase_s - pull_all_s,
        "strong_loop_s": (last_query - first_query) * scale,
        "report_s": (end - last_query) * scale,
        "pull_all_s": pull_all_s,
        "pull_calls": pulls[0][ATTRS]["calls"] if pulls else 0,
        "strong_calls": queries[0][ATTRS]["calls"] if queries else 0,
        "ambiguous_initial": attrs.get("ambiguous_initial", 0),
        "rho": attrs.get("rho"),
    }


# What each workload was chosen to exercise, checked against its trace.  The
# spans compared are the phases of each fit and the other leaf layers.
_PHASES = ("weak_phase_s", "strong_loop_s", "report_s")
_LEAVES = ("instances.generate_s", "oracles.pull_all_s", "harness.metrics_s", "harness.emit_s")


def _phase_spans(metrics: dict) -> dict:
    return {
        name: value for name, (value, _, _) in metrics.items()
        if name in _LEAVES or (name.count(".") == 2 and name.endswith(_PHASES))
    }


def premise(workload: str, metrics: dict, spans: list) -> str | None:
    """Check a workload's rationale on its trace; None when it states none."""
    if workload == "adaptive_5e4":
        phases = _phase_spans(metrics)
        largest = max(phases, key=phases.get)
        ok = largest == "certify.ace_w.weak_phase_s"
        return f"certify.ace_w.weak_phase_s is the largest span: {ok} (largest: {largest})"
    if workload == "uninformative_1e4":
        phases = _phase_spans(metrics)
        loops = phases.pop("certify.ace.strong_loop_s") + phases.pop("certify.ace_w.strong_loop_s")
        largest = max(phases, key=phases.get)
        ok = loops > phases[largest]
        return (f"ace + ace_w strong loops ({loops:.4f} s) exceed every other span: {ok} "
                f"(next: {largest}, {phases[largest]:.4f} s)")
    if workload == "screen_1e6":
        adaptive = [s for s in spans if s[NAME] == "oracles.pull"
                    or (s[NAME] == "fit" and s[ATTRS]["algo"] in ("ace", "ace_w"))]
        return f"no adaptive span appears: {not adaptive} ({len(adaptive)} adaptive spans)"
    return None
