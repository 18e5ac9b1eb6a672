"""Count what ``ace_w``'s weak-phase planner computes for the pulls it makes.

    PYTHONPATH=src python tests/plan_probe.py                 # adaptive_5e4's shape
    PYTHONPATH=src python tests/plan_probe.py --n 1000 --k 50 --seeds 0..200
    PYTHONPATH=src python tests/plan_probe.py --n 10000 --k 100 --seeds 0..8 \
        --ci-method anytime_empirical_bernstein --clamp   # uninformative_1e4's shape
    PYTHONPATH=src python tests/plan_probe.py --n 2000 --k 20 --reflect   # k = 1980 of 2000

Runs ``ace_w`` on gap instances (gap 0.05, oracle sigma 0.1, weak budget
12 n, w_min 6, sub-Gaussian intervals unless told otherwise), one per seed,
with the instance and the weak oracle seeded alike, as the benchmark's
replicates are; ``--reflect`` fits each instance's reflection instead, values
1 - v with n - k of them on top.  For all fits together it prints the
adaptive pulls, the planner's levels, the steps ``_WeakPlan._walk`` (and
``_rows`` inside it) previewed and how many (item, count) pairs repeat one
previewed before, the steps the levels merged (in all, and at most in one
level), the most steps carried from one level to the next, the draws the
planner computed, every draw the adaptive phase computed (the planner's, and
any the weak oracle computed to pull the planned steps: none where it
charges them by stream position), for each of the l_k and u_k trackers the
merged steps whose liveness was in doubt and the rises it replayed (of those
that could cross its threshold), and the numpy columns ``_walk`` stepped
with the items walking in each (those ``_rows`` steps in scalar floats are
not in a column).  It then fits the first seed once more under
``tracemalloc`` and prints the peak of that fit.
``counting`` is the helper; ``tests/test_golden_phase1.py`` uses it.
"""

from __future__ import annotations

import argparse
import contextlib
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from topkcert import (
    AdaptiveCertifyWeak,
    GapInstanceSpec,
    Instance,
    StrongOracle,
    WeakOracle,
    generate_gap_instance,
)
from topkcert.certify import _KthLargestOfRising, _WeakPlan


@dataclass
class PlanCounts:
    pulls: int = 0
    levels: int = 0
    steps: int = 0
    draws: int = 0
    draw_calls: int = 0
    # every draw the adaptive phase computed: the planner's, and any the
    # weak oracle computed to pull the planned steps
    phase_draws: int = 0
    merged: int = 0
    largest_level: int = 0
    largest_carry: int = 0
    columns: int = 0
    row_steps: int = 0
    # the (item, count) pairs previewed, one array of keys per fit
    previewed: list = field(default_factory=list)
    # per tracker ("l_k", "u_k"): merged steps in doubt, rises replayed, and
    # rises that could cross its threshold
    doubtful: dict = field(default_factory=lambda: {"l_k": 0, "u_k": 0})
    replayed: dict = field(default_factory=lambda: {"l_k": 0, "u_k": 0})
    hits: dict = field(default_factory=lambda: {"l_k": 0, "u_k": 0})

    def repeats(self) -> int:
        """Previewed (item, count) pairs that one fit previewed before."""
        return sum(keys.size - np.unique(keys).size for keys in self.previewed)


@contextlib.contextmanager
def counting():
    """Count, for every ``_WeakPlan`` run while the block is open, its pulls,
    levels, previewed steps and draws, and its trackers' doubtful steps and
    replayed rises; yields the ``PlanCounts``."""
    counts = PlanCounts()
    run, walk, commit, carry = _WeakPlan.run, _WeakPlan._walk, _WeakPlan._commit, _WeakPlan._carry
    tables, rows = _WeakPlan._tables, _WeakPlan._rows
    rise_many = _KthLargestOfRising.rise_many
    walking = False
    trackers = {}

    def counted_run(self, budget_left):
        before = self.weak.total_pulls
        counts.previewed.append([])
        draws = self.weak._draws

        def counted_draws(items, starts, count):
            block = draws(items, starts, count)
            counts.phase_draws += block.size
            if walking:
                counts.draws += block.size
                counts.draw_calls += 1
            return block

        self.weak._draws = counted_draws
        trackers[id(self.kth_lower)], trackers[id(self.kth_neg_upper)] = "l_k", "u_k"
        try:
            return run(self, budget_left)
        finally:
            del self.weak._draws
            counts.pulls += self.weak.total_pulls - before
            keys = counts.previewed.pop()
            counts.previewed.append(np.concatenate(keys) if keys else np.zeros(0, np.int64))

    def counted_walk(self, *args):
        nonlocal walking
        walking = True
        try:
            result = walk(self, *args)
        finally:
            walking = False
        # the new steps follow the carried ones
        steps, new = result[0], result[1]
        items, pulls = (column[column.size - new :] for column in steps[:2])
        counts.steps += new
        counts.previewed[-1].append(items * (int(self.w_max) + 1) + pulls)
        return result

    def counted_commit(self, steps, *args):
        counts.levels += 1
        counts.merged += steps[0].size
        counts.largest_level = max(counts.largest_level, steps[0].size)
        return commit(self, steps, *args)

    def counted_carry(self, *args):
        carried = carry(self, *args)
        counts.largest_carry = max(counts.largest_carry, carried[0].size)
        return carried

    def counted_tables(self, top):
        # ``_walk`` looks up the radius terms once per column
        counts.columns += 1
        return tables(self, top)

    def counted_rows(self, *args):
        parts = args[-2]
        before = len(parts)
        short = rows(self, *args)
        counts.row_steps += sum(part[0].size for part in parts[before:])
        return short

    def counted_rise_many(self, items, old, new, probes):
        # the probes between the thresholds before and after the batch are in
        # doubt, and the crossing rises before the last of them are replayed
        t = self.threshold
        reached = rise_many(self, items, old, new, probes)
        after, name = self.threshold, trackers[id(self)]
        doubt = np.flatnonzero((probes >= t) & (probes < after))
        crossing = (old <= after) & (new > t)
        counts.doubtful[name] += doubt.size
        counts.replayed[name] += int(np.count_nonzero(crossing[: doubt[-1]])) if doubt.size else 0
        counts.hits[name] += int(np.count_nonzero(crossing))
        return reached

    names = ("run", "_walk", "_commit", "_carry", "_tables", "_rows")
    originals = (run, walk, commit, carry, tables, rows)
    wrapped = (counted_run, counted_walk, counted_commit, counted_carry, counted_tables, counted_rows)
    for name, function in zip(names, wrapped):
        setattr(_WeakPlan, name, function)
    _KthLargestOfRising.rise_many = counted_rise_many
    try:
        yield counts
    finally:
        for name, function in zip(names, originals):
            setattr(_WeakPlan, name, function)
        _KthLargestOfRising.rise_many = rise_many


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--n", type=int, default=50_000)
    parser.add_argument("--k", type=int, default=500)
    parser.add_argument("--seeds", default="0..3", help="half-open range a..b")
    parser.add_argument("--ci-method", default="subgaussian")
    parser.add_argument("--clamp", action="store_true", help="clamp the weak draws to [0, 1]")
    parser.add_argument(
        "--reflect", action="store_true",
        help="fit each instance's reflection: values 1 - v, with n - k on top",
    )
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split(".."))
    fits = last - first

    def fitter(seed):
        inst = generate_gap_instance(GapInstanceSpec(n=args.n, k=args.k, seed=seed))
        if args.reflect:
            inst = Instance(values=1 - inst.values, k=args.n - args.k)
        weak = WeakOracle(inst, sigma=0.1, seed=seed, clamp=args.clamp)
        certifier = AdaptiveCertifyWeak(inst.k, weak_budget=12 * args.n, ci_method=args.ci_method)
        return lambda: certifier.fit(weak, StrongOracle(inst))

    seconds = 0.0
    with counting() as counts:
        for seed in range(first, last):
            fit = fitter(seed)
            start = time.perf_counter()
            fit()
            seconds += time.perf_counter() - start
    fit = fitter(first)
    tracemalloc.start()
    fit()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    pulls = max(counts.pulls, 1)
    print(f"fits {fits}, adaptive pulls {counts.pulls}, levels {counts.levels}")
    print(f"previewed steps {counts.steps} ({counts.steps / pulls:.3f} per pull), "
          f"repeated {counts.repeats()}")
    print(f"merged steps {counts.merged} ({counts.merged / pulls:.3f} per pull), "
          f"largest level {counts.largest_level} steps, largest carry {counts.largest_carry}")
    print(f"planner draws {counts.draws} ({counts.draws / pulls:.3f} per pull) "
          f"in {counts.draw_calls} calls; all draws of the adaptive phase "
          f"{counts.phase_draws} ({counts.phase_draws / pulls:.3f} per pull)")
    for name in ("l_k", "u_k"):
        print(f"{name} tracker: doubtful steps {counts.doubtful[name]} of {counts.merged} merged, "
              f"replayed rises {counts.replayed[name]} of {counts.hits[name]} that could cross")
    column_steps = counts.steps - counts.row_steps
    print(f"walk columns {counts.columns / fits:.1f} per fit, "
          f"{column_steps / max(counts.columns, 1):.1f} walkers per column")
    print(f"tracemalloc peak of one fit (seed {first}) {peak / 1e6:.2f} MB")
    print(f"fit time {seconds:.3f} s (counting included)")


if __name__ == "__main__":
    main()
