"""Byte-identity guards for ace_w's adaptive weak phase on larger shapes.

Each digest pins the frozen weak state (bounds, pull counts, means and
conflicts), the per-item pull counts the weak oracle charged, and the strong
trace and selected set of one ``ace_w`` run, as the program produced them
when phase one was a scalar loop of one heap pop and one pull per adaptive
pull, or, for the shape with k above n / 2, when phase one was planned and
its k-th largest trackers kept a heap from one batch to the next.  The
shapes are large enough that phase one is planned in many levels; on two of
them the planner is also counted (``plan_probe.counting``): it previews each
step once, and its draws per pull stay under a stated bound.  The long-run
shape was pinned when no level was sized by ``_WeakPlan.WIDTH``, and stays
the same at any width.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from plan_probe import counting

from topkcert import AdaptiveCertifyWeak, GapInstanceSpec, StrongOracle, WeakOracle, generate_gap_instance
from topkcert.certify import _WeakPlan

SHAPES = {
    "subgaussian_n5000": (
        dict(n=5000, k=50, seed=3, clamp=False, params={}),
        "0e980e715d5e44a13e177385480589ec6bdcf544d7755fc56826592a69b88780",
    ),
    "anytime_eb_clamped_wmax60": (
        dict(
            n=2000, k=20, seed=5, clamp=True,
            params={"ci_method": "anytime_empirical_bernstein", "w_max": 60,
                    "weak_budget": 40 * 2000},
        ),
        "a3197ea903dba0631edd04b215cbb784c55aabffab631cd68facf6659e7bda61",
    ),
    "uncovered_ci_sigma_0.02": (
        dict(n=1000, k=20, seed=7, clamp=False, params={"ci_sigma": 0.02}),
        "94860c8de60359261a27b324d3c38f018011692aa2626e5c08086246b72c8d1f",
    ),
    # k above n / 2: the l_k tracker takes the mirrored k-th largest and the
    # u_k tracker (k' = n - k + 1) the direct one, unlike every shape above
    "k_above_half_n20000": (
        dict(n=20000, k=15000, seed=1, clamp=False, params={}),
        "05276f9e7f97fe37fa3148ae2c7dca93683cfe41a467b848b0820dae90e25218",
    ),
}


def _run(n, k, seed, clamp, params):
    inst = generate_gap_instance(GapInstanceSpec(n=n, k=k, seed=seed))
    weak = WeakOracle(inst, sigma=0.1, seed=seed, clamp=clamp)
    report = AdaptiveCertifyWeak(k, **params).fit(weak, StrongOracle(inst)).report_
    return report, weak


def _digest(report, weak) -> str:
    state = report.weak_state
    h = hashlib.sha256()
    for array in (state.lower, state.upper, state.means):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    for array in (state.pulls, weak.pulls_per_item):
        h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    h.update(repr((state.conflicts, report.interval_conflicts, report.weak_pulls,
                   weak.total_pulls, report.trace, report.selected)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_ace_w_matches_golden_digest(name):
    kwargs, digest = SHAPES[name]
    report, weak = _run(**kwargs)
    assert _digest(report, weak) == digest


def test_uncovered_shape_reaches_the_conflict_path():
    kwargs, _ = SHAPES["uncovered_ci_sigma_0.02"]
    report, _ = _run(**kwargs)
    assert report.interval_conflicts > 0


# The planner's draws per adaptive pull on the two shapes below are 2.34 and
# 1.56 with each planned step carried to the next level; they were 3.26 and
# 1.57 when the steps above a level's frontier were planned again.
DRAWS_PER_PULL = 2.5


@pytest.mark.parametrize("name", ["subgaussian_n5000", "anytime_eb_clamped_wmax60"])
def test_each_planned_step_is_previewed_once(name):
    kwargs, digest = SHAPES[name]
    with counting() as counts:
        report, weak = _run(**kwargs)
    assert _digest(report, weak) == digest
    assert counts.pulls == weak.total_pulls - kwargs["n"] * 6 > 0
    assert counts.repeats() == 0
    assert counts.draws <= DRAWS_PER_PULL * counts.pulls


# Anytime empirical-Bernstein bounds on clamped draws stay at width 1 for
# about 60 pulls each, so each level takes some of the live items, and n is
# 8 times the default width: a level of WIDTH items leaves most items out.
LONG_RUNS = (
    dict(n=4096, k=40, seed=2, clamp=True, params={"ci_method": "anytime_empirical_bernstein"}),
    "32b0f6907f981198971c3ac38d23a75f6a977ca656f089185752bd1fb32a01a3",
)


def test_long_runs_match_golden_digest_at_any_width():
    kwargs, digest = LONG_RUNS
    levels = {}
    for width in (1, 64, 512, 4096):
        with mock.patch.object(_WeakPlan, "WIDTH", width), counting() as counts:
            report, weak = _run(**kwargs)
        assert _digest(report, weak) == digest
        levels[width] = counts.levels
    # the width binds above the steps' own sizing (8192 / 60, about 136 items)
    assert levels[1] == levels[64] > levels[512]
