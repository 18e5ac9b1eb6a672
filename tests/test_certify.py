"""Tests for the five certifiers: exactness, cost identities, budget discipline."""

import dataclasses
import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkcert.certify import (
    ALGORITHMS,
    AdaptiveCertify,
    AdaptiveCertifyWeak,
    BruteForceCertify,
    ScreenThenCertify,
    ThresholdCertify,
    _ace_loop,
    _head_pool,
    _KthLargestOfRising,
    _leading,
    _WeakPlan,
)
from topkcert.confidence import (
    AnytimeEmpiricalBernstein,
    SubGaussian,
    build_fixed_intervals,
)
from topkcert.core import (
    Instance,
    IntervalState,
    ambiguous_set,
    coverage_event_holds,
    epsilon_max,
    kth_largest,
    true_top_k,
)
from topkcert.instances import GapInstanceSpec, PackingSpec, generate_gap_instance, generate_packing_instance
from topkcert.oracles import BudgetExceededError, StrongOracle, WeakOracle, snapshot_and_reset

from test_core import _assert_read_only, _reference_counts, _report_counts, _reveal_point
from test_oracles import _RecordingPullAllOracle, _RecordingStrongOracle


def _truth(instance):
    return tuple(int(x) for x in true_top_k(instance))


def _random_instance(seed, n=40, k=8):
    rng = np.random.default_rng(seed)
    return Instance(values=rng.random(n), k=k)


def _final_state_from(report, instance):
    """The final bounds: the weak state's, with the trace's values revealed."""
    lower, upper = report.weak_state.lower.copy(), report.weak_state.upper.copy()
    for x in report.trace:
        _reveal_point(lower, upper, x, float(instance.values[x]))
    return lower, upper


class TestZeroNoise:
    """Noise-free weak oracle with tiny radii: the boundary is immediately clear."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        values = np.round(np.linspace(0.05, 0.95, 25), 3)
        self.inst = Instance(values=values[rng.permutation(25)], k=6)
        self.kwargs = dict(n_weak=4, ci_method="subgaussian", ci_sigma=1e-4)

    def _oracles(self):
        return WeakOracle(self.inst, noise="exact", seed=0), StrongOracle(self.inst)

    def test_stc_queries_exactly_the_threshold_item(self):
        weak, strong = self._oracles()
        report = ScreenThenCertify(6, **self.kwargs).fit(weak, strong).report_
        assert report.ambiguous_initial == 1
        assert report.strong_calls == 1
        assert report.selected == _truth(self.inst)

    def test_ace_needs_zero_strong_calls(self):
        weak, strong = self._oracles()
        report = AdaptiveCertify(6, **self.kwargs).fit(weak, strong).report_
        assert report.strong_calls == 0
        assert report.selected == _truth(self.inst)

    def test_ta_stops_after_k_calls(self):
        weak, strong = self._oracles()
        report = ThresholdCertify(6, **self.kwargs).fit(weak, strong).report_
        assert report.strong_calls == 6
        assert report.selected == _truth(self.inst)


class TestPackingInstances:
    @pytest.mark.parametrize("m", [50, 100, 200])
    def test_one_shot_and_adaptive_query_all_packed_items(self, m):
        inst, state = generate_packing_instance(PackingSpec(n=400, k=10, m=m), seed=m)
        truth = _truth(inst)
        rep_stc = ScreenThenCertify(10).fit(None, StrongOracle(inst), state).report_
        rep_ace = AdaptiveCertify(10).fit(None, StrongOracle(inst), state).report_
        assert rep_stc.strong_calls == m
        assert rep_ace.strong_calls == m
        assert rep_stc.selected == rep_ace.selected == truth
        assert sorted(rep_stc.trace) == sorted(rep_ace.trace) == list(range(m))

    def test_packed_equals_ambiguous_set(self):
        inst, state = generate_packing_instance(PackingSpec(n=300, k=10, m=80))
        assert list(ambiguous_set(state, 10)) == list(range(80))


class TestScreenThenCertify:
    def test_strong_calls_equal_ambiguous_size_on_every_seed(self):
        for seed in range(30):
            inst = generate_gap_instance(GapInstanceSpec(n=250, k=25, seed=seed))
            weak, strong = WeakOracle(inst, sigma=0.1, seed=seed), StrongOracle(inst)
            report = ScreenThenCertify(25).fit(weak, strong).report_
            assert report.strong_calls == report.ambiguous_initial
            assert report.strong_calls == ambiguous_set(report.weak_state, 25).size
            assert sorted(report.trace) == list(ambiguous_set(report.weak_state, 25))

    def test_correct_whenever_covered(self):
        for seed in range(30):
            inst = _random_instance(seed, n=60, k=12)
            weak, strong = WeakOracle(inst, sigma=0.05, seed=seed), StrongOracle(inst)
            report = ScreenThenCertify(12).fit(weak, strong).report_
            if coverage_event_holds(inst, report.weak_state):
                assert report.selected == _truth(inst)


def _reference_ace_loop(lower, upper, k, strong):
    """The O(n)-per-call adaptive strong loop, recomputed from definitions on
    writable bounds; returns the selected items, the trace and the conflicts.

    Every call partitions the upper bounds for the tentative-in set and scans
    both sides for the critical pair.
    """
    n = lower.size
    trace = []
    conflicts = 0
    if k == n:
        return np.arange(n), trace, conflicts
    for _ in range(n + 1):
        u_k = np.partition(upper, n - k)[n - k]
        mask = upper > u_k
        short = k - int(np.count_nonzero(mask))
        if short > 0:
            mask[np.flatnonzero(upper == u_k)[:short]] = True
        i = int(np.argmin(np.where(mask, lower, np.inf)))
        j = int(np.argmax(np.where(mask, -np.inf, upper)))
        if lower[i] >= upper[j]:
            return np.flatnonzero(mask), trace, conflicts
        x = i if (upper[i] - lower[i]) >= (upper[j] - lower[j]) else j
        conflicts += _reveal_point(lower, upper, x, strong.query(x))
        trace.append(x)
    raise AssertionError("adaptive certification did not terminate")


def _assert_ace_loop_matches_reference(state, k, values):
    inst = Instance(values=values, k=k)
    lower, upper = state.lower.copy(), state.upper.copy()
    ref_selected, ref_trace, ref_conflicts = _reference_ace_loop(lower, upper, k, StrongOracle(inst))
    selected, trace, revealed = _ace_loop(state, k, StrongOracle(inst))
    assert trace == ref_trace
    assert revealed == values[trace].tolist()
    np.testing.assert_array_equal(selected, ref_selected)
    ambiguous = ambiguous_set(IntervalState.from_bounds(lower, upper), k).size
    assert _report_counts(state, k, trace, revealed) == (ambiguous, state.conflicts + ref_conflicts)


@st.composite
def _ace_loop_cases(draw):
    """Random interval states, strong values, and k in [1, n - 1].

    Intervals are midpoint +- radius clipped to [0, 1], so many bounds sit at
    exactly 0 or 1; with ``levels`` set, midpoints, radii and strong values
    are quantised to a few levels, so bounds and values tie across items.
    Unless ``consistent``, strong values are drawn independently of the
    intervals and contradict some of them, which makes conflicts occur.
    """
    n = draw(st.integers(2, 24))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    levels = draw(st.sampled_from([None, 2, 4, 8]))
    if levels is None:
        unit = st.floats(0.0, 1.0)
    else:
        unit = st.integers(0, levels).map(lambda i: i / levels)
    mid = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    radius = 0.6 * np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    values = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    lower = np.clip(mid - radius, 0.0, 1.0)
    upper = np.clip(mid + radius, 0.0, 1.0)
    consistent = draw(st.booleans())
    if consistent:
        values = np.clip(values, lower, upper)
    return IntervalState.from_bounds(lower, upper), k, values


class TestAdaptiveCertify:
    def test_queries_stay_inside_initial_ambiguous_set(self):
        for seed in range(25):
            inst = generate_gap_instance(GapInstanceSpec(n=200, k=20, seed=seed))
            weak, strong = WeakOracle(inst, sigma=0.1, seed=seed), StrongOracle(inst)
            report = AdaptiveCertify(20).fit(weak, strong).report_
            amb = set(int(x) for x in ambiguous_set(report.weak_state, 20))
            assert set(report.trace) <= amb
            assert len(set(report.trace)) == len(report.trace)

    def test_paired_dominance_over_one_shot(self):
        for seed in range(25):
            inst = generate_gap_instance(GapInstanceSpec(n=200, k=20, seed=seed))
            weak = WeakOracle(inst, sigma=0.1, seed=seed)
            strong = StrongOracle(inst)
            rep_stc = ScreenThenCertify(20).fit(weak, strong).report_
            snapshot_and_reset(weak, strong)
            rep_ace = AdaptiveCertify(20).fit(weak, strong).report_
            assert rep_ace.strong_calls <= rep_stc.strong_calls
            # identical weak phases is what makes the comparison paired
            np.testing.assert_array_equal(rep_ace.weak_state.lower, rep_stc.weak_state.lower)

    def test_termination_certificate(self):
        for seed in range(20):
            inst = _random_instance(seed, n=80, k=15)
            weak, strong = WeakOracle(inst, sigma=0.08, seed=seed), StrongOracle(inst)
            report = AdaptiveCertify(15).fit(weak, strong).report_
            lower, upper = _final_state_from(report, inst)
            inside = np.asarray(report.selected)
            outside = np.setdiff1d(np.arange(inst.n), inside)
            assert lower[inside].min() >= upper[outside].max()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_ace_loop_cases())
    def test_loop_matches_reference_on_random_states(self, case):
        state, k, values = case
        _assert_ace_loop_matches_reference(state, k, values)

    @pytest.mark.parametrize("k", [1, 25, 499])
    def test_loop_matches_reference_on_weak_states(self, k):
        for seed in range(4):
            inst = generate_gap_instance(GapInstanceSpec(n=500, k=k, seed=seed))
            weak = WeakOracle(inst, sigma=0.1, seed=seed)
            state = build_fixed_intervals(weak, 12, 0.05 / 500, SubGaussian(0.1))
            _assert_ace_loop_matches_reference(state, k, inst.values)

    def test_separated_intervals_certify_for_free(self):
        state = IntervalState.from_bounds(
            np.array([0.8, 0.6, 0.1]), np.array([0.9, 0.7, 0.2])
        )
        inst = Instance(values=np.array([0.85, 0.65, 0.15]), k=2)
        report = AdaptiveCertify(2).fit(None, StrongOracle(inst), state).report_
        assert report.strong_calls == 0
        assert report.selected == (0, 1)


def _reference_adaptive_weak_phase(*args, **kwargs):
    """The pull sequence, bounds and pull counts of ``_reference_phase_one``."""
    return _reference_phase_one(*args, **kwargs)[:4]


def _reference_phase_one(
    instance, seed, k, delta, w_min, w_max, budget, sigma, method="subgaussian", clamp=False,
    noise="gaussian", ci_sigma=None,
):
    """From-scratch reimplementation of the adaptive weak phase.

    Recomputes the ambiguous set and the boundary order statistics from
    definitions at every step; only pulls currently ambiguous items below the
    per-item cap, widest interval first with index tie-break.  ``method`` is
    ``"subgaussian"`` (scale ``ci_sigma``, by default the oracle's ``sigma``)
    or ``"anytime_empirical_bernstein"`` (support range 1).  Returns the pull
    sequence, the bounds, the pull counts, the means and the conflicts.
    """

    def radius(c, x):
        if method == "subgaussian":
            scale = sigma if ci_sigma is None else ci_sigma
            return float(SubGaussian(scale).radius(c, 0.0, delta_x, anytime=True))
        variance = m2[x] / (c - 1) if c >= 2 else 0.0
        return float(AnytimeEmpiricalBernstein(1.0).radius(c, variance, delta_x))

    weak = WeakOracle(instance, noise=noise, sigma=sigma, seed=seed, clamp=clamp)
    n = instance.n
    delta_x = delta / n
    obs = weak.pull_all(w_min)
    means = obs.mean(axis=1).tolist()
    m2 = (obs.var(axis=1, ddof=1) * (w_min - 1)).tolist() if w_min >= 2 else [0.0] * n
    counts = [w_min] * n
    conflicts = 0
    # the warm start clips both bounds to [0, 1]
    lower = [min(1.0, max(0.0, means[x] - radius(w_min, x))) for x in range(n)]
    upper = [min(1.0, max(0.0, means[x] + radius(w_min, x))) for x in range(n)]
    sequence = []
    budget_left = budget - n * w_min
    while budget_left > 0:
        u_k = sorted(upper, reverse=True)[k - 1]
        l_k = sorted(lower, reverse=True)[k - 1]
        ambiguous = [x for x in range(n) if lower[x] <= u_k and upper[x] >= l_k]
        eligible = [x for x in ambiguous if counts[x] < w_max]
        if not eligible:
            break
        x = min(eligible, key=lambda y: (lower[y] - upper[y], y))
        value = weak.pull(x)
        counts[x] += 1
        c = counts[x]
        mu = means[x]
        d = value - mu
        mu += d / c
        means[x] = mu
        m2[x] += d * (value - mu)
        r = radius(c, x)
        new_lo, new_hi = max(0.0, mu - r), min(1.0, mu + r)
        lo, hi = max(lower[x], new_lo), min(upper[x], new_hi)
        if lo > hi:
            lo = hi = upper[x] if new_lo > upper[x] else lower[x]
            conflicts += 1
        lower[x], upper[x] = lo, hi
        sequence.append(x)
        budget_left -= 1
    return sequence, lower, upper, counts, means, conflicts


class _RecordingWeakOracle(WeakOracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.single_pull_log = []

    def pull(self, x):
        self.single_pull_log.append(x)
        return super().pull(x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=200),
    st.lists(st.tuples(st.integers(0, 199), st.integers(0, 4)), max_size=300),
    st.integers(1, 200),
    st.lists(st.integers(0, 300), max_size=4),
)
def test_kth_largest_tracker_matches_sorting_under_tied_rises(start, rises, k, cuts):
    values = [level / 4 for level in start]
    k = min(k, len(values))
    tracker = _KthLargestOfRising(np.array(values), k)
    items, old, new, expected = [], [], [], []
    for x, step in rises:
        x %= len(values)
        expected.append(sorted(values, reverse=True)[k - 1])
        items.append(x)
        old.append(values[x])
        values[x] = min(1.0, values[x] + step / 4)
        new.append(values[x])
    # the rises arrive in batches split at the cuts
    bounds = sorted({0, len(items), *(min(cut, len(items)) for cut in cuts)})
    before = []
    for lo, hi in zip(bounds, bounds[1:]):
        batch = [np.array(column[lo:hi], dtype=dtype)
                 for column, dtype in ((items, np.int64), (old, float), (new, float))]
        before.extend(tracker.rise_many(*batch).tolist())
    assert before == expected
    assert tracker.threshold == sorted(values, reverse=True)[k - 1]


def test_kth_largest_tracker_at_a_large_k_matches_sorting():
    # the u_k tracker's shape: k = n - top + 1 of -upper, with upper bounds
    # clipped to 1.0 and lowered on a grid, so that values tie at the
    # threshold; at n >= 16384 its k-th largest is cut from a sample
    rng = np.random.default_rng(5)
    n, top = 20_000, 100
    k = n - top + 1
    upper = np.round(np.minimum(rng.uniform(0.5, 1.005, n), 1.0), 3)
    values = -upper
    tracker = _KthLargestOfRising(values.copy(), k)
    start = tracker.threshold
    candidates = np.argsort(-upper, kind="stable")[:600]
    with mock.patch("topkcert.certify.kth_largest", wraps=kth_largest) as spy:
        for _ in range(4):
            items = rng.choice(candidates, 400)
            old, new, expected = [], [], []
            for x in items:
                expected.append(np.partition(values, n - k)[n - k])
                old.append(values[x])
                values[x] = min(0.0, np.round(values[x] + rng.uniform(0.0, 0.03), 3))
                new.append(values[x])
            before = tracker.rise_many(items, np.array(old), np.array(new))
            np.testing.assert_array_equal(before, expected)
    assert tracker.threshold == np.partition(values, n - k)[n - k] != start
    assert any(args[1] <= n // 64 for args, _ in spy.call_args_list)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan]), max_size=60
    )
)
def test_leading_is_the_head_of_the_stable_order(keys):
    keys = np.array(keys, dtype=np.float64)
    expected = np.argsort(keys, kind="stable")
    for size in range(keys.size + 1):
        np.testing.assert_array_equal(_leading(keys, size), expected[:size])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([3, 1000, None]),
    st.sampled_from([0.0, 0.01, 0.6]),
    st.integers(1, 3000),
)
def test_head_pool_holds_the_head_of_the_stable_order(seed, levels, nan_share, count):
    # long enough for the sampled cut: ties, NaN and both signs of zero
    rng = np.random.default_rng(seed)
    n = 20000 + int(rng.integers(0, 5000))
    keys = rng.random(n) if levels is None else rng.integers(0, levels, n) * 1.0
    keys[keys == 0.0] = rng.choice([-0.0, 0.0], int(np.count_nonzero(keys == 0.0)))
    keys[rng.random(n) < nan_share] = np.nan
    pool = _head_pool(keys, count)
    if levels is None and nan_share < 0.5 and count <= n // 8:
        assert pool is not None
    if pool is not None:
        assert pool.size >= count
        np.testing.assert_array_equal(pool, np.sort(np.argsort(keys, kind="stable")[: pool.size]))
    np.testing.assert_array_equal(_leading(keys, count), np.argsort(keys, kind="stable")[:count])


def test_head_pool_is_none_where_the_sample_misleads():
    # the strided sample reads only zeros, which 1024 of 20480 keys hold
    keys = np.ones(20480)
    keys[::20] = 0.0
    assert _head_pool(keys, 1024).size == 1024
    assert _head_pool(keys, 1025) is None
    for size in (1000, 1024, 1025, 2560):
        np.testing.assert_array_equal(_leading(keys, size), np.argsort(keys, kind="stable")[:size])


@st.composite
def _phase_one_cases(draw):
    n = draw(st.integers(2, 40))
    k = draw(st.integers(1, n - 1))
    w_min = draw(st.integers(1, 6))
    w_max = draw(st.one_of(st.none(), st.integers(w_min, w_min + 40)))
    budget = draw(st.integers(n * w_min, 150 * n))
    method = draw(st.sampled_from(["subgaussian", "anytime_empirical_bernstein"]))
    # a misstated scale leaves intervals that miss their values: conflicts
    ci_sigma = draw(st.sampled_from([None, 0.01, 0.02])) if method == "subgaussian" else None
    return dict(
        n=n, k=k, w_min=w_min, w_max=w_max, budget=budget, method=method, ci_sigma=ci_sigma,
        clamp=draw(st.booleans()), noise=draw(st.sampled_from(["gaussian", "exact"])),
        # values on a grid of 20 levels, so that values and widths tie
        levels=draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)),
        seed=draw(st.integers(0, 3)),
    )


def _assert_phase_one_matches_reference(case):
    instance = Instance(values=np.array(case["levels"]) / 20, k=1)
    ref_seq, ref_lo, ref_hi, ref_counts, ref_means, ref_conflicts = _reference_phase_one(
        instance, case["seed"], k=case["k"], delta=0.05, w_min=case["w_min"],
        w_max=case["budget"] if case["w_max"] is None else case["w_max"],
        budget=case["budget"], sigma=0.1, method=case["method"], clamp=case["clamp"],
        noise=case["noise"], ci_sigma=case["ci_sigma"],
    )
    params = dict(
        weak_budget=case["budget"], w_min=case["w_min"], w_max=case["w_max"],
        ci_method=case["method"], ci_sigma=0.1 if case["ci_sigma"] is None else case["ci_sigma"],
    )
    oracle = dict(noise=case["noise"], sigma=0.1, seed=case["seed"], clamp=case["clamp"])
    recording = _RecordingWeakOracle(instance, **oracle)
    AdaptiveCertifyWeak(case["k"], **params).fit(recording, StrongOracle(instance))
    assert recording.single_pull_log == ref_seq
    # the plain oracle pulls each batch in one numpy pass
    weak = WeakOracle(instance, **oracle)
    state = AdaptiveCertifyWeak(case["k"], **params).fit(weak, StrongOracle(instance)).report_.weak_state
    np.testing.assert_array_equal(state.lower, np.asarray(ref_lo))
    np.testing.assert_array_equal(state.upper, np.asarray(ref_hi))
    np.testing.assert_array_equal(state.pulls, np.asarray(ref_counts))
    np.testing.assert_array_equal(state.means, np.asarray(ref_means))
    np.testing.assert_array_equal(weak.pulls_per_item, np.asarray(ref_counts))
    assert state.conflicts == ref_conflicts


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_phase_one_cases())
def test_planned_phase_one_matches_reference(case):
    _assert_phase_one_matches_reference(case)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_phase_one_cases(), st.integers(1, 64), st.integers(1, 8))
def test_planned_phase_one_matches_reference_in_small_levels(case, target, narrow):
    # levels of a few steps: many levels, caps, column walks at n <= 40
    with mock.patch.object(_WeakPlan, "TARGET", target), mock.patch.object(
        _WeakPlan, "NARROW", narrow
    ):
        _assert_phase_one_matches_reference(case)


class TestAdaptiveCertifyWeak:
    def test_phase_one_matches_reference_implementation(self):
        for seed in (0, 1, 2):
            inst = generate_gap_instance(GapInstanceSpec(n=60, k=10, seed=seed))
            budget = 60 * 12
            ref_seq, ref_lo, ref_hi, ref_counts = _reference_adaptive_weak_phase(
                inst, seed, k=10, delta=0.05, w_min=6, w_max=budget, budget=budget, sigma=0.1
            )
            weak = _RecordingWeakOracle(inst, sigma=0.1, seed=seed)
            report = AdaptiveCertifyWeak(10, weak_budget=budget, w_min=6).fit(weak, StrongOracle(inst)).report_
            assert weak.single_pull_log == ref_seq
            np.testing.assert_array_equal(report.weak_state.lower, np.asarray(ref_lo))
            np.testing.assert_array_equal(report.weak_state.upper, np.asarray(ref_hi))
            np.testing.assert_array_equal(report.weak_state.pulls, np.asarray(ref_counts))

    @pytest.mark.parametrize(
        "method, clamp, k, budget_per_item",
        [
            # clamped bounded intervals: many bounds tie at exactly 0 or 1
            ("anytime_empirical_bernstein", True, 10, 150),
            ("anytime_empirical_bernstein", True, 1, 150),
            ("subgaussian", False, 1, 12),
            ("subgaussian", False, 2, 12),
        ],
    )
    def test_phase_one_matches_reference_with_ties_and_small_k(
        self, method, clamp, k, budget_per_item
    ):
        n = 40
        budget = n * budget_per_item
        for seed in (0, 1, 2):
            inst = generate_gap_instance(GapInstanceSpec(n=n, k=max(k, 2), seed=seed))
            ref_seq, ref_lo, ref_hi, ref_counts = _reference_adaptive_weak_phase(
                inst, seed, k=k, delta=0.05, w_min=6, w_max=budget, budget=budget,
                sigma=0.1, method=method, clamp=clamp,
            )
            weak = _RecordingWeakOracle(inst, sigma=0.1, seed=seed, clamp=clamp)
            certifier = AdaptiveCertifyWeak(k, weak_budget=budget, w_min=6, ci_method=method)
            report = certifier.fit(weak, StrongOracle(inst)).report_
            assert weak.single_pull_log == ref_seq
            np.testing.assert_array_equal(report.weak_state.lower, np.asarray(ref_lo))
            np.testing.assert_array_equal(report.weak_state.upper, np.asarray(ref_hi))
            np.testing.assert_array_equal(report.weak_state.pulls, np.asarray(ref_counts))

    def test_phase_one_matches_reference_when_unchanged_intervals_hit_the_cap(self):
        # clamped empirical-Bernstein intervals stay [0, 1] over many pulls, so
        # items reach w_max through pulls that leave their interval unchanged
        n, w_max = 40, 20
        budget = n * 150
        method = "anytime_empirical_bernstein"
        for seed in (0, 1, 2):
            inst = generate_gap_instance(GapInstanceSpec(n=n, k=10, seed=seed))
            ref_seq, ref_lo, ref_hi, ref_counts = _reference_adaptive_weak_phase(
                inst, seed, k=10, delta=0.05, w_min=6, w_max=w_max, budget=budget,
                sigma=0.1, method=method, clamp=True,
            )
            weak = _RecordingWeakOracle(inst, sigma=0.1, seed=seed, clamp=True)
            certifier = AdaptiveCertifyWeak(10, weak_budget=budget, w_min=6, w_max=w_max, ci_method=method)
            report = certifier.fit(weak, StrongOracle(inst)).report_
            assert weak.single_pull_log == ref_seq
            state = report.weak_state
            np.testing.assert_array_equal(state.lower, np.asarray(ref_lo))
            np.testing.assert_array_equal(state.upper, np.asarray(ref_hi))
            np.testing.assert_array_equal(state.pulls, np.asarray(ref_counts))
            capped_full = (state.pulls == w_max) & (state.lower == 0.0) & (state.upper == 1.0)
            assert capped_full.any()

    @pytest.mark.parametrize(
        "method, variance",
        [("subgaussian", False), ("anytime_empirical_bernstein", True)],
    )
    def test_warm_start_reads_variances_only_for_radii_that_use_them(self, method, variance):
        class Recording(WeakOracle):
            def pull_all_moments(self, count, variance=False):
                asked.append((count, variance))
                return super().pull_all_moments(count, variance)

        asked = []
        inst = generate_gap_instance(GapInstanceSpec(n=60, k=10, seed=0))
        weak = Recording(inst, sigma=0.1, seed=0, clamp=True)
        certifier = AdaptiveCertifyWeak(10, weak_budget=60 * 9, w_min=6, ci_method=method)
        got = certifier.fit(weak, StrongOracle(inst)).report_
        plain = WeakOracle(inst, sigma=0.1, seed=0, clamp=True)
        want = certifier.fit(plain, StrongOracle(inst)).report_
        assert asked == [(6, variance)]
        assert got.trace == want.trace
        assert got.weak_state.lower.tobytes() == want.weak_state.lower.tobytes()
        assert got.weak_state.upper.tobytes() == want.weak_state.upper.tobytes()

    def test_phase_one_rejects_an_oracle_that_does_not_replay_its_draws(self):
        class Drifting(WeakOracle):
            def pull(self, x):
                return super().pull(x) + 1e-9

        inst = generate_gap_instance(GapInstanceSpec(n=60, k=10, seed=0))
        with pytest.raises(RuntimeError, match="did not return the draws"):
            AdaptiveCertifyWeak(10, w_min=6).fit(Drifting(inst, sigma=0.1, seed=0), StrongOracle(inst))

    def test_budget_and_per_item_cap(self):
        inst = generate_gap_instance(GapInstanceSpec(n=120, k=12, seed=4))
        weak = WeakOracle(inst, sigma=0.1, seed=4)
        budget = 120 * 12
        certifier = AdaptiveCertifyWeak(12, weak_budget=budget, w_min=6, w_max=9)
        report = certifier.fit(weak, StrongOracle(inst)).report_
        assert weak.total_pulls <= budget
        assert report.weak_pulls == weak.total_pulls
        assert weak.pulls_per_item.max() <= 9
        assert weak.pulls_per_item.min() >= 6

    def test_exhausts_budget_when_uncapped(self):
        inst = generate_gap_instance(GapInstanceSpec(n=100, k=10, seed=5))
        weak = WeakOracle(inst, sigma=0.1, seed=5)
        budget = 100 * 10
        AdaptiveCertifyWeak(10, weak_budget=budget, w_min=6).fit(weak, StrongOracle(inst))
        # the ambiguous set never empties, so an uncapped phase spends everything
        assert weak.total_pulls == budget

    def test_degenerate_budget_equals_adaptive_on_warm_start(self):
        inst = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=6))
        weak = WeakOracle(inst, sigma=0.1, seed=6)
        rep_w = AdaptiveCertifyWeak(15, weak_budget=150 * 6, w_min=6).fit(weak, StrongOracle(inst)).report_
        weak.reset()
        # the warm start: 6 pulls each, radii on the anytime schedule
        means, _ = weak.pull_all_moments(6)
        delta_x = 0.05 / 150
        radii = SubGaussian(0.1).batch_radius(6, 0.0, delta_x, anytime=True)
        state = IntervalState.from_bounds(
            np.clip(means - radii, 0.0, 1.0), np.clip(means + radii, 0.0, 1.0)
        )
        rep_a = AdaptiveCertify(15).fit(None, StrongOracle(inst), state).report_
        assert rep_w.trace == rep_a.trace
        assert rep_w.selected == rep_a.selected

    def test_reports_ambiguous_radius_at_freeze(self):
        inst = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=7))
        weak = WeakOracle(inst, sigma=0.1, seed=7)
        report = AdaptiveCertifyWeak(15, weak_budget=150 * 12, w_min=6).fit(weak, StrongOracle(inst)).report_
        amb = ambiguous_set(report.weak_state, 15)
        assert report.eps_max_ambiguous == epsilon_max(report.weak_state, amb)
        assert report.eps_max == epsilon_max(report.weak_state)
        assert report.eps_max_ambiguous <= report.eps_max

    def test_budget_too_small_rejected(self):
        inst = _random_instance(0, n=30, k=5)
        weak = WeakOracle(inst, sigma=0.1, seed=0)
        with pytest.raises(ValueError):
            AdaptiveCertifyWeak(5, weak_budget=100, w_min=6).fit(weak, StrongOracle(inst))

    def test_prescribed_intervals_rejected(self):
        inst, state = generate_packing_instance(PackingSpec(n=50, k=5, m=20))
        certifier = AdaptiveCertifyWeak(k=5)
        strong = StrongOracle(inst)
        with pytest.raises(ValueError, match="live oracle access"):
            certifier.fit(WeakOracle(inst, seed=0), strong, initial_state=state)
        assert strong.calls == 0


@pytest.mark.parametrize("name", ["stc", "ace", "ace_w", "ta"])
def test_an_overriding_pull_all_is_called_once_per_screen(name):
    inst = generate_gap_instance(GapInstanceSpec(n=120, k=10, seed=4))
    params = {"ci_method": "empirical_bernstein", "n_weak": 8}
    if name == "ace_w":
        params = {"ci_method": "anytime_empirical_bernstein", "weak_budget": 120 * 9, "w_min": 6}
    plain = WeakOracle(inst, sigma=0.1, seed=4, clamp=True)
    weak = _RecordingPullAllOracle(inst, sigma=0.1, seed=4, clamp=True)
    want = ALGORITHMS[name](10, **params).fit(plain, StrongOracle(inst)).report_
    got = ALGORITHMS[name](10, **params).fit(weak, StrongOracle(inst)).report_
    assert weak.pull_all_counts == [params.get("w_min", 8)]
    assert got.trace == want.trace and got.selected == want.selected
    assert weak.total_pulls == plain.total_pulls
    np.testing.assert_array_equal(got.weak_state.lower, want.weak_state.lower)
    np.testing.assert_array_equal(got.weak_state.upper, want.weak_state.upper)


class _NanStrongOracle(StrongOracle):
    def query(self, x):
        super().query(x)
        return float("nan")


@pytest.mark.parametrize("name", ["ace", "ace_w"])
def test_nan_reveal_raises_at_the_first_query(name):
    inst = generate_gap_instance(GapInstanceSpec(n=60, k=10, seed=0))
    strong = _NanStrongOracle(inst)
    weak = WeakOracle(inst, sigma=0.1, seed=0)
    with pytest.raises(ValueError, match="non-monotone"):
        ALGORITHMS[name](k=10).fit(weak, strong)
    assert strong.calls == 1


class TestThresholdCertify:
    def test_identical_intervals_verify_everything(self):
        rng = np.random.default_rng(8)
        values = 0.4 + 0.2 * rng.random(30)
        inst = Instance(values=values, k=5)
        state = IntervalState.from_bounds(np.full(30, 0.3), np.full(30, 0.7))
        report = ThresholdCertify(5).fit(None, StrongOracle(inst), state).report_
        assert report.strong_calls == 30
        assert report.selected == _truth(inst)

    def test_stops_early_with_informative_intervals(self):
        for seed in range(20):
            inst = generate_gap_instance(GapInstanceSpec(n=200, k=20, seed=seed))
            weak, strong = WeakOracle(inst, sigma=0.1, seed=seed), StrongOracle(inst)
            report = ThresholdCertify(20).fit(weak, strong).report_
            assert 20 <= report.strong_calls <= 200
            if coverage_event_holds(inst, report.weak_state):
                assert report.selected == _truth(inst)

    def test_tied_estimates_are_queried_by_index(self):
        # identical intervals never stop the loop early, so every item is queried
        rng = np.random.default_rng(14)
        means = np.round(rng.random(50), 1)
        inst = Instance(values=rng.random(50), k=5)
        state = IntervalState.from_bounds(np.zeros(50), np.ones(50), means=means)
        report = ThresholdCertify(5).fit(None, StrongOracle(inst), state).report_
        assert report.trace == tuple(sorted(range(50), key=lambda x: (-means[x], x)))

    def test_initial_state_with_too_few_means_is_rejected_before_any_call(self):
        inst = Instance(values=np.random.default_rng(15).random(100), k=5)
        strong = StrongOracle(inst)
        with pytest.raises(ValueError, match=r"means has shape \(3,\), the bounds \(100,\)"):
            state = IntervalState.from_bounds(np.zeros(100), np.ones(100), means=[0.5, 0.2, 0.9])
            ThresholdCertify(5).fit(None, strong, state)
        assert strong.calls == 0

    @pytest.mark.parametrize("k, seed, nan_share", [(1, 0, 0.0), (4, 1, 0.0), (9, 2, 0.0), (8, 3, 0.8)])
    def test_selection_widens_across_tied_estimates(self, k, seed, nan_share):
        # estimates on a 0.1 grid tie in groups of ~50, so the selected
        # prefix ends inside a tie group; the stop comes after the top two
        # groups, past 2k queries, so the prefix widens at least once
        rng = np.random.default_rng(seed)
        n = 400
        means = np.round(0.8 * rng.random(n), 1)
        means[rng.random(n) < nan_share] = np.nan
        upper = np.where(np.isnan(means), 1.0, means + 0.15)
        state = IntervalState.from_bounds(np.zeros(n), upper, means=means)
        inst = Instance(values=np.nan_to_num(means, nan=0.0), k=k)
        selected, trace, revealed = ThresholdCertify(k)._strong_phase(state, k, StrongOracle(inst))
        expected, expected_trace, counts = _reference_ta_phase(state, k, StrongOracle(inst))
        assert trace.tolist() == expected_trace
        assert len(trace) > 2 * k
        np.testing.assert_array_equal(selected, expected)
        assert _report_counts(state, k, trace, revealed) == counts

    def test_stopping_rule_certificate(self):
        # at the stop, the k-th largest verified value dominates every
        # unverified weak upper bound
        inst = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=9))
        weak, strong = WeakOracle(inst, sigma=0.1, seed=9), StrongOracle(inst)
        report = ThresholdCertify(15).fit(weak, strong).report_
        if report.strong_calls < inst.n:
            verified = np.asarray(report.trace)
            unverified = np.setdiff1d(np.arange(inst.n), verified)
            kth_verified = sorted(inst.values[verified], reverse=True)[14]
            assert kth_verified >= report.weak_state.upper[unverified].max()


def _reference_ta_phase(state, k, strong):
    """ThresholdCertify's strong phase as a full stable sort of the estimates;
    returns the selected items, the trace and the report's counts after its
    reveals (see ``_reference_counts``)."""
    n = state.n
    order = np.argsort(-state.point_estimates(), kind="stable")
    suffix_max = np.empty(n + 1)
    suffix_max[n] = -np.inf
    suffix_max[:n] = np.maximum.accumulate(state.upper[order][::-1])[::-1]
    trace, values, top_heap = [], [], []
    for pos in range(n):
        x = int(order[pos])
        value = strong.query(x)
        trace.append(x)
        values.append(value)
        heapq.heappush(top_heap, value)
        if len(top_heap) > k:
            heapq.heappop(top_heap)
        if len(top_heap) == k and top_heap[0] >= suffix_max[pos + 1]:
            break
    counts = _reference_counts(state, k, trace, values)
    verified = np.asarray(trace, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    return verified[np.lexsort((verified, -vals))[:k]], trace, counts


@st.composite
def _ta_cases(draw):
    n = draw(st.integers(2, 150))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    # few levels tie values, estimates and bounds
    levels = draw(st.sampled_from([4, 20, 10**6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, levels + 1, n) / levels
    noise = draw(st.sampled_from([0.0, 0.05, 0.3]))
    means = np.round(np.clip(values + noise * rng.standard_normal(n), 0.0, 1.0) * levels) / levels
    means[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = np.nan
    bounds = draw(st.sampled_from(["uninformative", "around", "random"]))
    if bounds == "uninformative":
        # the rule fires only where k values reach 1.0
        lower, upper = np.zeros(n), np.ones(n)
    elif bounds == "around":
        radius = draw(st.sampled_from([0.0, 0.02, 0.1]))
        lower = np.where(np.isnan(means), 0.0, np.clip(means - radius, 0.0, 1.0))
        upper = np.where(np.isnan(means), 1.0, np.clip(means + radius, 0.0, 1.0))
    else:
        lower, upper = np.sort(rng.integers(0, levels + 1, (2, n)) / levels, axis=0)
    state = IntervalState.from_bounds(lower, upper, means=means)
    cap = draw(st.one_of(st.none(), st.integers(0, n)))
    return Instance(values=values, k=k), state, k, cap


def _assert_ta_matches_reference(instance, state, k, cap):
    """ThresholdCertify's phase against the rule tested after every query:
    the same calls, trace, selected set and report counts, or the same budget
    error."""
    outcomes = []
    for phase in (ThresholdCertify(k)._strong_phase, _reference_ta_phase):
        strong = StrongOracle(instance, cap=cap)
        try:
            result = phase(state, k, strong)
        except BudgetExceededError as err:
            result = str(err)
        outcomes.append((result, strong.calls, strong.trace))
    (got, calls, trace), (expected, ref_calls, ref_trace) = outcomes
    assert calls == ref_calls and trace == ref_trace
    if isinstance(expected, str):
        assert got == expected
        return
    selected, items, values = got
    ref_selected, ref_items, counts = expected
    assert items.tolist() == ref_items == trace
    assert selected.dtype == ref_selected.dtype and selected.tobytes() == ref_selected.tobytes()
    assert values.tolist() == instance.values[items].tolist()
    assert _report_counts(state, k, items, values) == counts


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_ta_cases())
def test_ta_blocks_match_the_rule_tested_after_every_query(case):
    _assert_ta_matches_reference(*case)


def _ta_screen():
    """A gap instance (n = 300, k = 10) and its screen, on which ta queries
    54 items in six blocks."""
    inst = generate_gap_instance(GapInstanceSpec(n=300, k=10, seed=2))
    state = build_fixed_intervals(
        WeakOracle(inst, sigma=0.2, seed=2), 12, 0.05 / 300, SubGaussian(0.2)
    )
    return inst, state


def test_ta_blocks_match_the_rule_at_every_strong_cap():
    # every cap up to the uncapped calls falls inside or at the end of one
    # of about six blocks
    inst, state = _ta_screen()
    n, k = inst.n, inst.k
    calls = ThresholdCertify(k).fit(None, StrongOracle(inst), state).report_.strong_calls
    assert 3 * k < calls < n
    for cap in range(calls + 2):
        _assert_ta_matches_reference(inst, state, k, cap)


@pytest.mark.parametrize("k, wide", [(5, False), (300, False), (5, True), (300, True)])
def test_ta_blocks_match_the_rule_on_a_long_order(k, wide):
    # long enough for the order's sampled cuts, with the rule firing after
    # 513 and 748 queries, within heads cut at sampled guesses; estimates
    # tie on a grid
    n = 40000
    rng = np.random.default_rng(k)
    values = 0.8 * rng.random(n)
    means = np.round(np.clip(values + 0.003 * rng.standard_normal(n), 0.0, 1.0), 3)
    lower, upper = np.clip(means - 0.01, 0.0, 1.0), np.clip(means + 0.01, 0.0, 1.0)
    if wide:
        # three intervals halfway down the order reach 1.0, so the rule waits
        # for them: the first heads' bounds come from outside those heads
        at = np.argsort(-means, kind="stable")[[20000, 20001, 20002]]
        lower[at], upper[at] = 0.0, 1.0
    state = IntervalState.from_bounds(lower, upper, means=means)
    _assert_ta_matches_reference(Instance(values=values, k=k), state, k, None)


@pytest.mark.parametrize("n", [2000, 20000])
def test_ta_head_ends_inside_a_tie_with_the_largest_bound_just_past_it(n):
    # the first head, the order's first 2k items, ends inside a run of six
    # tied estimates; the next item, tied with its last, holds the largest
    # upper bound, so the rule fires only once that item is verified
    k = 10
    rng = np.random.default_rng(n)
    values = 0.4 * rng.random(n)
    top = rng.choice(n, 23, replace=False)
    values[top[:17]] = rng.uniform(0.8, 0.9, 17)
    tied = np.sort(top[17:])
    values[tied] = 0.7
    means = values.copy()
    lower, upper = np.clip(means - 0.01, 0.0, 1.0), np.clip(means + 0.01, 0.0, 1.0)
    lower[tied[3]], upper[tied[3]] = 0.0, 1.0
    order = np.argsort(-means, kind="stable")
    assert means[order[2 * k - 1]] == means[order[2 * k]] and order[2 * k] == np.argmax(upper)
    # at n < 16384 the head is partitioned from all keys, above that from a
    # pool cut at a sampled guess
    assert (_head_pool(-means, 2 * k) is not None) == (n >= 16384)
    state = IntervalState.from_bounds(lower, upper, means=means)
    _assert_ta_matches_reference(Instance(values=values, k=k), state, k, None)
    report = ThresholdCertify(k).fit(None, StrongOracle(Instance(values=values, k=k)), state).report_
    assert report.strong_calls == 2 * k + 1


class _NanAtStrongOracle(StrongOracle):
    """Answers NaN at one item."""

    def __init__(self, instance, item):
        super().__init__(instance)
        self.item = item

    def query(self, x):
        value = super().query(x)
        return float("nan") if x == self.item else value


@pytest.mark.parametrize("position", [0, 9, 10, 14, 30, 53])
def test_a_nan_strong_value_ends_ta_in_the_error_of_its_reveal(position):
    # the first block is k = 10 items long, later ones shorter; the rule
    # fires after 54 queries
    inst, state = _ta_screen()
    item = int(np.argsort(-state.point_estimates(), kind="stable")[position])
    with pytest.raises(ValueError, match=rf"non-monotone update of item {item}$"):
        _reference_ta_phase(state, 10, _NanAtStrongOracle(inst, item))
    strong = _NanAtStrongOracle(inst, item)
    with pytest.raises(ValueError) as fit_error:
        ThresholdCertify(10).fit(None, strong, state)
    interval = f"[{state.lower[item]}, {state.upper[item]}]"
    assert str(fit_error.value) == f"non-monotone update of item {item}: {interval} -> [nan, nan]"
    # the phase ends with the NaN's block, at most k items long
    assert strong.trace[position] == item and position < strong.calls <= position + 10


@pytest.mark.parametrize("name", ["stc", "ace", "ta"])
def test_the_report_trace_holds_the_strong_oracles_own_ints(name):
    inst = generate_gap_instance(GapInstanceSpec(n=2000, k=20, seed=0))
    strong = StrongOracle(inst)
    report = ALGORITHMS[name](20).fit(WeakOracle(inst, sigma=0.1, seed=0), strong).report_
    # ints above 256 are distinct objects in CPython
    assert max(report.trace) > 256 and list(report.trace) == strong.trace
    assert all(a is b for a, b in zip(report.trace, strong.trace))


class _UntracedStrongOracle(StrongOracle):
    """A query override that neither counts nor traces its queries."""

    def __init__(self, instance):
        super().__init__(instance)
        self.values = instance.values
        self.seen = []

    def query(self, x):
        self.seen.append(x)
        return float(self.values[x])


@pytest.mark.parametrize("name", ["stc", "ta"])
@pytest.mark.parametrize("oracle", [_RecordingStrongOracle, _UntracedStrongOracle])
def test_an_overriding_query_gets_the_trace_of_its_queries(name, oracle):
    inst = generate_gap_instance(GapInstanceSpec(n=2000, k=20, seed=1))
    plain = ALGORITHMS[name](20).fit(WeakOracle(inst, sigma=0.1, seed=1), StrongOracle(inst))
    strong = oracle(inst)
    report = ALGORITHMS[name](20).fit(WeakOracle(inst, sigma=0.1, seed=1), strong).report_
    assert report.trace == plain.report_.trace and report.selected == plain.report_.selected
    assert report.strong_calls == len(report.trace) > 20
    assert strong.seen == list(report.trace) and all(type(x) is int for x in strong.seen)


def _write(array, at, value):
    """What a caller can do to a state's array: make it writable again."""
    array.flags.writeable = True
    array[at] = value


@pytest.mark.parametrize("name", ["stc", "ace", "ta"])
@pytest.mark.parametrize(
    "change, message",
    [
        (lambda state: _write(state.lower, 1, np.nan), "NaN bound at item 1"),
        (lambda state: _write(state.upper, 0, 0.4), "empty interval at item 0"),
        (
            lambda state: object.__setattr__(state, "pulls", np.zeros(2, dtype=np.int64)),
            r"pulls has shape \(2,\), the bounds \(3,\)",
        ),
    ],
)
def test_an_initial_state_changed_after_construction_is_rejected_before_any_call(
    name, change, message
):
    # fit checks a caller's state as the constructor checked it
    state = IntervalState.from_bounds([0.5, 0.3, 0.1], [0.6, 0.9, 0.2], pulls=[3, 3, 3])
    change(state)
    strong = StrongOracle(Instance(values=np.array([0.5, 0.8, 0.1]), k=1))
    with pytest.raises(ValueError, match=message):
        ALGORITHMS[name](1).fit(None, strong, initial_state=state)
    assert strong.calls == 0


@pytest.mark.parametrize("name", ["stc", "ace", "ace_w", "ta", "brute"])
def test_a_missing_strong_oracle_is_rejected_before_any_pull(name):
    inst = _random_instance(16, n=200, k=20)
    weak = WeakOracle(inst, sigma=0.1, seed=0)
    with pytest.raises(ValueError, match="needs a strong oracle, got None"):
        ALGORITHMS[name](20).fit(weak, None)
    assert weak.total_pulls == 0
    if name == "brute":
        with pytest.raises(ValueError, match="needs a strong oracle, got None"):
            BruteForceCertify(3).fit(None, None)
    else:
        # k = 0 and k = n need no strong call
        for k in (0, 200):
            assert ALGORITHMS[name](k).fit(weak, None).report_.selected == tuple(range(k))


@pytest.mark.parametrize("name", ["stc", "ace", "ace_w", "ta"])
def test_a_missing_weak_oracle_is_rejected_before_any_strong_call(name):
    strong = StrongOracle(_random_instance(16, n=200, k=20))
    for k in (0, 20):
        with pytest.raises(ValueError, match="needs a weak oracle or an initial_state, got None"):
            ALGORITHMS[name](k).fit(None, strong)
    assert strong.calls == 0


@pytest.mark.parametrize("name", ["stc", "ace", "ace_w", "ta"])
@pytest.mark.parametrize("method", [SubGaussian(0.1), None])
def test_a_ci_method_that_is_not_a_name_is_rejected_before_any_pull(name, method):
    inst = _random_instance(16, n=200, k=20)
    weak, strong = WeakOracle(inst, sigma=0.1, seed=0), StrongOracle(inst)
    with pytest.raises(ValueError, match="unknown ci method"):
        ALGORITHMS[name](20, ci_method=method).fit(weak, strong)
    assert weak.total_pulls == 0 and strong.calls == 0


class TestBruteForce:
    def test_matches_true_top_k(self):
        for seed in range(20):
            inst = _random_instance(seed, n=25, k=7)
            report = BruteForceCertify(7).fit(None, StrongOracle(inst)).report_
            assert report.selected == _truth(inst)
            assert report.strong_calls == 25
            assert report.trace == tuple(range(25))

    def test_always_queries_everything(self):
        inst = _random_instance(5, n=12, k=12)
        assert BruteForceCertify(12).fit(None, StrongOracle(inst)).report_.strong_calls == 12


class TestEdgeCases:
    @pytest.mark.parametrize("name", ["stc", "ace", "ace_w", "ta"])
    def test_k_zero_and_k_n(self, name):
        inst = _random_instance(11, n=15, k=5)
        weak, strong = WeakOracle(inst, sigma=0.1, seed=0), StrongOracle(inst)
        low = ALGORITHMS[name](k=0).fit(weak, strong).report_
        assert low.selected == () and low.strong_calls == 0
        high = ALGORITHMS[name](k=15).fit(weak, strong).report_
        assert high.selected == tuple(range(15)) and high.strong_calls == 0
        assert strong.calls == 0

    def test_k_larger_than_n_rejected(self):
        inst = _random_instance(12, n=10, k=3)
        with pytest.raises(ValueError):
            ScreenThenCertify(11).fit(WeakOracle(inst, seed=0), StrongOracle(inst))


class TestBoundedNoisePath:
    """End-to-end runs with clamped observations and empirical-Bernstein radii."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        # mid-range values keep clamped Gaussian noise effectively unbiased
        self.inst = Instance(values=0.3 + 0.4 * rng.random(150), k=15)
        self.kwargs = dict(n_weak=600, ci_method="empirical_bernstein", ci_range=1.0)

    def _oracles(self, seed=1):
        return (
            WeakOracle(self.inst, sigma=0.05, seed=seed, clamp=True),
            StrongOracle(self.inst),
        )

    def test_one_shot_screens_with_bernstein_intervals(self):
        weak, strong = self._oracles()
        report = ScreenThenCertify(15, **self.kwargs).fit(weak, strong).report_
        assert 0 < report.strong_calls < self.inst.n
        if coverage_event_holds(self.inst, report.weak_state):
            assert report.selected == _truth(self.inst)

    def test_adaptive_dominates_one_shot_under_bernstein(self):
        weak, strong = self._oracles()
        rep_stc = ScreenThenCertify(15, **self.kwargs).fit(weak, strong).report_
        snapshot_and_reset(weak, strong)
        rep_ace = AdaptiveCertify(15, **self.kwargs).fit(weak, strong).report_
        assert rep_ace.strong_calls <= rep_stc.strong_calls

    def test_adaptive_weak_phase_with_bernstein_sequence(self):
        weak, strong = self._oracles()
        certifier = AdaptiveCertifyWeak(
            15, weak_budget=150 * 800, w_min=400, ci_method="empirical_bernstein", ci_range=1.0
        )
        report = certifier.fit(weak, strong).report_
        assert weak.total_pulls <= 150 * 800
        if coverage_event_holds(self.inst, report.weak_state):
            assert report.selected == _truth(self.inst)

    def test_anytime_method_as_fixed_construction(self):
        weak, strong = self._oracles()
        certifier = ScreenThenCertify(15, n_weak=600, ci_method="anytime_empirical_bernstein")
        report = certifier.fit(weak, strong).report_
        fixed = ScreenThenCertify(15, **self.kwargs).fit(*self._oracles()).report_
        assert report.strong_calls >= fixed.strong_calls
        if coverage_event_holds(self.inst, report.weak_state):
            assert report.selected == _truth(self.inst)


class TestEstimatorInterface:
    def test_fit_sets_attributes(self):
        inst = _random_instance(13, n=30, k=6)
        certifier = ThresholdCertify(k=6)
        assert certifier.fit(WeakOracle(inst, sigma=0.1, seed=1), StrongOracle(inst)) is certifier
        assert len(certifier.report_.selected) == 6

    @pytest.mark.parametrize(
        "name, params, text",
        [
            (
                "stc",
                {},
                "ScreenThenCertify(k=5, delta=0.05, n_weak=12, ci_method='subgaussian', ci_sigma=0.1, "
                "ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "stc",
                {"delta": 0.1},
                "ScreenThenCertify(k=5, delta=0.1, n_weak=12, ci_method='subgaussian', ci_sigma=0.1, "
                "ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "ace",
                {},
                "AdaptiveCertify(k=5, delta=0.05, n_weak=12, ci_method='subgaussian', ci_sigma=0.1, "
                "ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "ace",
                {"ci_method": "empirical_bernstein"},
                "AdaptiveCertify(k=5, delta=0.05, n_weak=12, ci_method='empirical_bernstein', ci_sigma=0.1, "
                "ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "ace_w",
                {},
                "AdaptiveCertifyWeak(k=5, delta=0.05, weak_budget=None, w_min=6, w_max=None, "
                "ci_method='subgaussian', ci_sigma=0.1, ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "ace_w",
                {"w_max": 40, "ci_sigma": 0.03},
                "AdaptiveCertifyWeak(k=5, delta=0.05, weak_budget=None, w_min=6, w_max=40, "
                "ci_method='subgaussian', ci_sigma=0.03, ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "ta",
                {},
                "ThresholdCertify(k=5, delta=0.05, n_weak=12, ci_method='subgaussian', ci_sigma=0.1, "
                "ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            (
                "ta",
                {"n_weak": 20},
                "ThresholdCertify(k=5, delta=0.05, n_weak=20, ci_method='subgaussian', ci_sigma=0.1, "
                "ci_range=1.0, delta_weak_fraction=1.0)",
            ),
            ("brute", {}, "BruteForceCertify(k=5)"),
        ],
        ids=["stc", "stc-delta", "ace", "ace-ci_method", "ace_w", "ace_w-w_max-ci_sigma", "ta", "ta-n_weak", "brute"],
    )
    def test_repr_shows_params(self, name, params, text):
        """Every constructor parameter in signature order, before and after fit."""
        certifier = ALGORITHMS[name](5, **params)
        assert repr(certifier) == text
        inst = _random_instance(13, n=30, k=6)
        certifier.fit(WeakOracle(inst, sigma=0.1, seed=1), StrongOracle(inst))
        assert repr(certifier) == text
        inst = _random_instance(13, n=30, k=6)
        certifier.fit(WeakOracle(inst, sigma=0.1, seed=1), StrongOracle(inst))
        assert repr(certifier) == text

    def test_registry_names(self):
        assert set(ALGORITHMS) == {"stc", "ace", "ace_w", "ta", "brute"}


@pytest.mark.parametrize("name", ["stc", "brute"])
def test_an_overriding_query_sees_every_batched_query(name):
    """stc and brute reveal through query_many; a query override still sees
    every item, stc's in A0 order, and the run is the same as without it."""
    for seed in range(5):
        inst = generate_gap_instance(GapInstanceSpec(n=300, k=20, seed=seed))
        recording = _RecordingStrongOracle(inst)
        reports = []
        for strong in (recording, StrongOracle(inst)):
            if name == "stc":
                reports.append(ScreenThenCertify(20).fit(WeakOracle(inst, sigma=0.1, seed=seed), strong).report_)
            else:
                reports.append(BruteForceCertify(20).fit(None, strong).report_)
            assert strong.trace == list(reports[-1].trace)
        recorded, plain = reports
        expected = ambiguous_set(recorded.weak_state, 20) if name == "stc" else np.arange(300)
        assert recording.seen == expected.tolist()
        assert recorded.trace == tuple(expected.tolist())
        assert recorded.selected == plain.selected == _truth(inst)
        assert recorded.trace == plain.trace


def test_stc_breaks_tied_reveals_by_index():
    rng = np.random.default_rng(3)
    for n, k in ((50, 1), (50, 17), (400, 40), (400, 399)):
        inst = Instance(values=rng.integers(0, 4, n) / 4, k=k)
        report = ScreenThenCertify(k).fit(None, StrongOracle(inst), IntervalState.full_range(n)).report_
        assert report.trace == tuple(range(n))
        assert report.selected == _truth(inst)


@pytest.mark.parametrize("name", ["stc", "ace", "ta"])
def test_conflicts_are_the_reveals_outside_their_weak_interval(name):
    # intervals scaled for sigma 0.01 on draws of sigma 0.1 miss many values
    n, k = 300, 30
    inst = generate_gap_instance(GapInstanceSpec(n=n, k=k, seed=0))
    screen = build_fixed_intervals(
        WeakOracle(inst, sigma=0.1, seed=0), 12, 0.05 / n, SubGaussian(0.01)
    )
    weak, strong = WeakOracle(inst, sigma=0.1, seed=0), StrongOracle(inst)
    report = ALGORITHMS[name](k, ci_sigma=0.01).fit(weak, strong).report_
    trace = np.asarray(report.trace)
    revealed = inst.values[trace]
    outside = (revealed < screen.lower[trace]) | (revealed > screen.upper[trace])
    assert report.interval_conflicts == np.count_nonzero(outside) > 0
    for field in ("lower", "upper", "pulls", "means"):
        got, expected = getattr(report.weak_state, field), getattr(screen, field)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), field
    got, expected = report.weak_state, screen
    assert (got.lower == got.upper).tobytes() == (expected.lower == expected.upper).tobytes()
    assert report.weak_state.conflicts == 0


class TestTrivialReports:
    """k == 0 and k == n: every report field, with no oracle access."""

    @pytest.mark.parametrize("name", ["stc", "ace", "ace_w", "ta"])
    @pytest.mark.parametrize("k", [0, 15])
    def test_every_report_field(self, name, k):
        inst = _random_instance(11, n=15, k=5)
        weak, strong = WeakOracle(inst, sigma=0.1, seed=0), StrongOracle(inst)
        report = ALGORITHMS[name](k=k).fit(weak, strong).report_
        expected = {
            "selected": tuple(range(k)),
            "strong_calls": 0,
            "weak_pulls": 0,
            "ambiguous_initial": k,
            "ambiguous_final": k,
            "eps_max": 0.5,
            "eps_max_ambiguous": 0.5,
            "trace": (),
            "interval_conflicts": 0,
        }
        assert {field: getattr(report, field) for field in expected} == expected
        state = report.weak_state
        np.testing.assert_array_equal(state.lower, np.zeros(15))
        np.testing.assert_array_equal(state.upper, np.ones(15))
        np.testing.assert_array_equal(state.pulls, np.zeros(15, dtype=np.int64))
        assert state.pulls.dtype == np.int64
        np.testing.assert_array_equal(state.lower == state.upper, np.zeros(15, dtype=bool))
        assert state.means is None and state.conflicts == 0
        assert weak.total_pulls == 0 and strong.calls == 0


@pytest.mark.parametrize("name", ["stc", "ace", "ta", "ace_w", "brute"])
@pytest.mark.parametrize("k", [0, 8, 40])
def test_no_report_holds_a_state_a_caller_can_change(name, k):
    inst = _random_instance(12, n=40, k=8)
    weak, strong = WeakOracle(inst, sigma=0.1, seed=0), StrongOracle(inst)
    _assert_read_only(ALGORITHMS[name](k).fit(weak, strong).report_.weak_state)


def test_an_initial_state_run_reports_the_callers_unchanged_state():
    inst, state = generate_packing_instance(PackingSpec(n=200, k=10, m=40), seed=1)
    state = dataclasses.replace(state, conflicts=2)
    before = [getattr(state, name).tobytes() for name in ("lower", "upper", "pulls")]
    for name in ("stc", "ace", "ta"):
        report = ALGORITHMS[name](10).fit(None, StrongOracle(inst), initial_state=state).report_
        assert report.weak_state is state
        assert report.strong_calls > 0 and report.interval_conflicts >= 2
    _assert_read_only(state)
    assert [getattr(state, name).tobytes() for name in ("lower", "upper", "pulls")] == before
    assert state.conflicts == 2
