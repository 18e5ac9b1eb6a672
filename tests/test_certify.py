"""Tests for the five certifiers: exactness, cost identities, budget discipline."""

import heapq

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
    _KthLargestOfRising,
    ace,
    ace_w,
    brute_force_certify,
    stc,
    ta_certify,
)
from topkcert.confidence import (
    DeltaBudget,
    StreamStats,
    SubGaussian,
    anytime_radius,
    anytime_subgaussian_radius,
    build_fixed_intervals,
)
from topkcert.core import (
    Instance,
    IntervalState,
    ambiguous_set,
    coverage_event_holds,
    epsilon_max,
    true_top_k,
)
from topkcert.instances import GapInstanceSpec, PackingSpec, generate_gap_instance, generate_packing_instance
from topkcert.oracles import StrongOracle, WeakOracle, snapshot_and_reset

from test_oracles import _RecordingStrongOracle


def _truth(instance):
    return tuple(int(x) for x in true_top_k(instance))


def _random_instance(seed, n=40, k=8):
    rng = np.random.default_rng(seed)
    return Instance(values=rng.random(n), k=k)


def _final_state_from(report, instance):
    """Reconstruct the final intervals from the frozen state plus the trace."""
    state = report.weak_state.copy()
    for x in report.trace:
        state.collapse_to(x, float(instance.values[x]))
    return state


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
        report = stc(weak, strong, k=6, **self.kwargs)
        assert report.ambiguous_initial == 1
        assert report.strong_calls == 1
        assert report.selected == _truth(self.inst)

    def test_ace_needs_zero_strong_calls(self):
        weak, strong = self._oracles()
        report = ace(weak, strong, k=6, **self.kwargs)
        assert report.strong_calls == 0
        assert report.selected == _truth(self.inst)

    def test_ta_stops_after_k_calls(self):
        weak, strong = self._oracles()
        report = ta_certify(weak, strong, k=6, **self.kwargs)
        assert report.strong_calls == 6
        assert report.selected == _truth(self.inst)


class TestPackingInstances:
    @pytest.mark.parametrize("m", [50, 100, 200])
    def test_one_shot_and_adaptive_query_all_packed_items(self, m):
        inst, state = generate_packing_instance(PackingSpec(n=400, k=10, m=m), seed=m)
        truth = _truth(inst)
        rep_stc = stc(None, StrongOracle(inst), k=10, initial_state=state)
        rep_ace = ace(None, StrongOracle(inst), k=10, initial_state=state)
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
            report = stc(weak, strong, k=25)
            assert report.strong_calls == report.ambiguous_initial
            assert report.strong_calls == ambiguous_set(report.weak_state, 25).size
            assert sorted(report.trace) == list(ambiguous_set(report.weak_state, 25))

    def test_correct_whenever_covered(self):
        for seed in range(30):
            inst = _random_instance(seed, n=60, k=12)
            weak, strong = WeakOracle(inst, sigma=0.05, seed=seed), StrongOracle(inst)
            report = stc(weak, strong, k=12)
            if coverage_event_holds(inst, report.weak_state):
                assert report.selected == _truth(inst)


def _reference_ace_loop(state, k, strong):
    """The O(n)-per-call adaptive strong loop, recomputed from definitions.

    Every call partitions the upper bounds for the tentative-in set and scans
    both sides for the critical pair.
    """
    lower, upper = state.lower, state.upper
    n = lower.size
    trace = []
    if k == n:
        return np.arange(n), trace
    for _ in range(n + 1):
        u_k = np.partition(upper, n - k)[n - k]
        mask = upper > u_k
        short = k - int(np.count_nonzero(mask))
        if short > 0:
            mask[np.flatnonzero(upper == u_k)[:short]] = True
        i = int(np.argmin(np.where(mask, lower, np.inf)))
        j = int(np.argmax(np.where(mask, -np.inf, upper)))
        if lower[i] >= upper[j]:
            return np.flatnonzero(mask), trace
        x = i if (upper[i] - lower[i]) >= (upper[j] - lower[j]) else j
        value = strong.query(x)
        state.collapse_to(x, value)
        trace.append(x)
    raise AssertionError("adaptive certification did not terminate")


def _assert_ace_loop_matches_reference(state, k, values):
    inst = Instance(values=values, k=k)
    ref_state, new_state = state.copy(), state.copy()
    ref_selected, ref_trace = _reference_ace_loop(ref_state, k, StrongOracle(inst))
    selected, trace = _ace_loop(new_state, k, StrongOracle(inst))
    assert trace == ref_trace
    np.testing.assert_array_equal(selected, ref_selected)
    np.testing.assert_array_equal(new_state.lower, ref_state.lower)
    np.testing.assert_array_equal(new_state.upper, ref_state.upper)
    np.testing.assert_array_equal(new_state.collapsed, ref_state.collapsed)
    assert new_state.conflicts == ref_state.conflicts


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
            report = ace(weak, strong, k=20)
            amb = set(int(x) for x in ambiguous_set(report.weak_state, 20))
            assert set(report.trace) <= amb
            assert len(set(report.trace)) == len(report.trace)

    def test_paired_dominance_over_one_shot(self):
        for seed in range(25):
            inst = generate_gap_instance(GapInstanceSpec(n=200, k=20, seed=seed))
            weak = WeakOracle(inst, sigma=0.1, seed=seed)
            strong = StrongOracle(inst)
            rep_stc = stc(weak, strong, k=20)
            snapshot_and_reset(weak, strong)
            rep_ace = ace(weak, strong, k=20)
            assert rep_ace.strong_calls <= rep_stc.strong_calls
            # identical weak phases is what makes the comparison paired
            np.testing.assert_array_equal(rep_ace.weak_state.lower, rep_stc.weak_state.lower)

    def test_termination_certificate(self):
        for seed in range(20):
            inst = _random_instance(seed, n=80, k=15)
            weak, strong = WeakOracle(inst, sigma=0.08, seed=seed), StrongOracle(inst)
            report = ace(weak, strong, k=15)
            final = _final_state_from(report, inst)
            inside = np.asarray(report.selected)
            outside = np.setdiff1d(np.arange(inst.n), inside)
            assert final.lower[inside].min() >= final.upper[outside].max()

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
            state = build_fixed_intervals(weak, 12, DeltaBudget.split(0.05, 500), SubGaussian(0.1))
            _assert_ace_loop_matches_reference(state, k, inst.values)

    def test_separated_intervals_certify_for_free(self):
        state = IntervalState.from_bounds(
            np.array([0.8, 0.6, 0.1]), np.array([0.9, 0.7, 0.2])
        )
        inst = Instance(values=np.array([0.85, 0.65, 0.15]), k=2)
        report = ace(None, StrongOracle(inst), k=2, initial_state=state)
        assert report.strong_calls == 0
        assert report.selected == (0, 1)


def _reference_adaptive_weak_phase(
    instance, seed, k, delta, w_min, w_max, budget, sigma, method="subgaussian", clamp=False
):
    """From-scratch reimplementation of the adaptive weak phase.

    Recomputes the ambiguous set and the boundary order statistics from
    definitions at every step; only pulls currently ambiguous items below the
    per-item cap, widest interval first with index tie-break.  ``method`` is
    ``"subgaussian"`` (scale ``sigma``) or ``"anytime_empirical_bernstein"``
    (support range 1).
    """

    def radius(c, x):
        if method == "subgaussian":
            return anytime_subgaussian_radius(sigma, c, delta_x)
        return anytime_radius(StreamStats(count=c, mean=means[x], m2=m2[x]), delta_x, 1.0)

    weak = WeakOracle(instance, sigma=sigma, seed=seed, clamp=clamp)
    n = instance.n
    delta_x = delta / n
    obs = weak.pull_all(w_min)
    means = obs.mean(axis=1).tolist()
    m2 = (obs.var(axis=1, ddof=1) * (w_min - 1)).tolist()
    counts = [w_min] * n
    lower = [max(0.0, means[x] - radius(w_min, x)) for x in range(n)]
    upper = [min(1.0, means[x] + radius(w_min, x)) for x in range(n)]
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
        lower[x], upper[x] = lo, hi
        sequence.append(x)
        budget_left -= 1
    return sequence, lower, upper, counts


class _RecordingWeakOracle(WeakOracle):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.single_pull_log = []

    def pull(self, x):
        self.single_pull_log.append(x)
        return super().pull(x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=30),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 4)), max_size=60),
    st.integers(1, 30),
)
def test_kth_largest_tracker_matches_sorting_under_tied_rises(start, rises, k):
    values = [level / 4 for level in start]
    k = min(k, len(values))
    tracker = _KthLargestOfRising(np.array(values), k)
    for x, step in rises:
        x %= len(values)
        old = values[x]
        new = min(1.0, old + step / 4)
        if new == old:
            continue
        values[x] = new
        tracker.rise(x, old, new)
        assert tracker.threshold == sorted(values, reverse=True)[k - 1]


class TestAdaptiveCertifyWeak:
    def test_phase_one_matches_reference_implementation(self):
        for seed in (0, 1, 2):
            inst = generate_gap_instance(GapInstanceSpec(n=60, k=10, seed=seed))
            budget = 60 * 12
            ref_seq, ref_lo, ref_hi, ref_counts = _reference_adaptive_weak_phase(
                inst, seed, k=10, delta=0.05, w_min=6, w_max=budget, budget=budget, sigma=0.1
            )
            weak = _RecordingWeakOracle(inst, sigma=0.1, seed=seed)
            report = ace_w(weak, StrongOracle(inst), k=10, weak_budget=budget, w_min=6)
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
            report = ace_w(
                weak, StrongOracle(inst), k=k, weak_budget=budget, w_min=6, ci_method=method
            )
            assert weak.single_pull_log == ref_seq
            np.testing.assert_array_equal(report.weak_state.lower, np.asarray(ref_lo))
            np.testing.assert_array_equal(report.weak_state.upper, np.asarray(ref_hi))
            np.testing.assert_array_equal(report.weak_state.pulls, np.asarray(ref_counts))

    def test_budget_and_per_item_cap(self):
        inst = generate_gap_instance(GapInstanceSpec(n=120, k=12, seed=4))
        weak = WeakOracle(inst, sigma=0.1, seed=4)
        budget = 120 * 12
        report = ace_w(weak, StrongOracle(inst), k=12, weak_budget=budget, w_min=6, w_max=9)
        assert weak.total_pulls <= budget
        assert report.weak_pulls == weak.total_pulls
        assert weak.pulls_per_item.max() <= 9
        assert weak.pulls_per_item.min() >= 6

    def test_exhausts_budget_when_uncapped(self):
        inst = generate_gap_instance(GapInstanceSpec(n=100, k=10, seed=5))
        weak = WeakOracle(inst, sigma=0.1, seed=5)
        budget = 100 * 10
        ace_w(weak, StrongOracle(inst), k=10, weak_budget=budget, w_min=6)
        # the ambiguous set never empties, so an uncapped phase spends everything
        assert weak.total_pulls == budget

    def test_degenerate_budget_equals_adaptive_on_warm_start(self):
        inst = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=6))
        weak = WeakOracle(inst, sigma=0.1, seed=6)
        rep_w = ace_w(weak, StrongOracle(inst), k=15, weak_budget=150 * 6, w_min=6)
        weak.reset()
        state = build_fixed_intervals(
            weak, 6, DeltaBudget.split(0.05, 150), SubGaussian(0.1), anytime=True
        )
        rep_a = ace(None, StrongOracle(inst), k=15, initial_state=state)
        assert rep_w.trace == rep_a.trace
        assert rep_w.selected == rep_a.selected

    def test_reports_ambiguous_radius_at_freeze(self):
        inst = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=7))
        weak = WeakOracle(inst, sigma=0.1, seed=7)
        report = ace_w(weak, StrongOracle(inst), k=15, weak_budget=150 * 12, w_min=6)
        amb = ambiguous_set(report.weak_state, 15)
        assert report.eps_max_ambiguous == epsilon_max(report.weak_state, amb)
        assert report.eps_max == epsilon_max(report.weak_state)
        assert report.eps_max_ambiguous <= report.eps_max

    def test_budget_too_small_rejected(self):
        inst = _random_instance(0, n=30, k=5)
        weak = WeakOracle(inst, sigma=0.1, seed=0)
        with pytest.raises(ValueError):
            ace_w(weak, StrongOracle(inst), k=5, weak_budget=100, w_min=6)

    def test_prescribed_intervals_rejected(self):
        inst, state = generate_packing_instance(PackingSpec(n=50, k=5, m=20))
        certifier = AdaptiveCertifyWeak(k=5)
        with pytest.raises(ValueError):
            certifier.fit(WeakOracle(inst, seed=0), StrongOracle(inst), initial_state=state)


class TestThresholdCertify:
    def test_identical_intervals_verify_everything(self):
        rng = np.random.default_rng(8)
        values = 0.4 + 0.2 * rng.random(30)
        inst = Instance(values=values, k=5)
        state = IntervalState.from_bounds(np.full(30, 0.3), np.full(30, 0.7))
        report = ta_certify(None, StrongOracle(inst), k=5, initial_state=state)
        assert report.strong_calls == 30
        assert report.selected == _truth(inst)

    def test_stops_early_with_informative_intervals(self):
        for seed in range(20):
            inst = generate_gap_instance(GapInstanceSpec(n=200, k=20, seed=seed))
            weak, strong = WeakOracle(inst, sigma=0.1, seed=seed), StrongOracle(inst)
            report = ta_certify(weak, strong, k=20)
            assert 20 <= report.strong_calls <= 200
            if coverage_event_holds(inst, report.weak_state):
                assert report.selected == _truth(inst)

    def test_tied_estimates_are_queried_by_index(self):
        # identical intervals never stop the loop early, so every item is queried
        rng = np.random.default_rng(14)
        means = np.round(rng.random(50), 1)
        inst = Instance(values=rng.random(50), k=5)
        state = IntervalState.from_bounds(np.zeros(50), np.ones(50), means=means)
        report = ta_certify(None, StrongOracle(inst), k=5, initial_state=state)
        assert report.trace == tuple(sorted(range(50), key=lambda x: (-means[x], x)))

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
        work, reference_work = state.copy(), state.copy()
        selected, trace = ThresholdCertify(k)._strong_phase(work, k, StrongOracle(inst))
        expected, expected_trace = _reference_ta_phase(reference_work, k, StrongOracle(inst))
        assert trace == expected_trace
        assert len(trace) > 2 * k
        np.testing.assert_array_equal(selected, expected)
        assert work.lower.tobytes() == reference_work.lower.tobytes()
        assert work.upper.tobytes() == reference_work.upper.tobytes()

    def test_stopping_rule_certificate(self):
        # at the stop, the k-th largest verified value dominates every
        # unverified weak upper bound
        inst = generate_gap_instance(GapInstanceSpec(n=150, k=15, seed=9))
        weak, strong = WeakOracle(inst, sigma=0.1, seed=9), StrongOracle(inst)
        report = ta_certify(weak, strong, k=15)
        if report.strong_calls < inst.n:
            verified = np.asarray(report.trace)
            unverified = np.setdiff1d(np.arange(inst.n), verified)
            kth_verified = sorted(inst.values[verified], reverse=True)[14]
            assert kth_verified >= report.weak_state.upper[unverified].max()


def _reference_ta_phase(work, k, strong):
    """ThresholdCertify's strong phase as a full stable sort of the estimates."""
    n = work.n
    order = np.argsort(-work.point_estimates(), kind="stable")
    suffix_max = np.empty(n + 1)
    suffix_max[n] = -np.inf
    suffix_max[:n] = np.maximum.accumulate(work.upper[order][::-1])[::-1]
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
    verified = np.asarray(trace, dtype=np.int64)
    vals = np.asarray(values, dtype=np.float64)
    work.collapse_many(verified, vals)
    return verified[np.lexsort((verified, -vals))[:k]], trace


class TestBruteForce:
    def test_matches_true_top_k(self):
        for seed in range(20):
            inst = _random_instance(seed, n=25, k=7)
            report = brute_force_certify(StrongOracle(inst), k=7)
            assert report.selected == _truth(inst)
            assert report.strong_calls == 25
            assert report.trace == tuple(range(25))

    def test_always_queries_everything(self):
        inst = _random_instance(5, n=12, k=12)
        assert brute_force_certify(StrongOracle(inst), k=12).strong_calls == 12


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
            stc(WeakOracle(inst, seed=0), StrongOracle(inst), k=11)


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
        report = stc(weak, strong, k=15, **self.kwargs)
        assert 0 < report.strong_calls < self.inst.n
        if coverage_event_holds(self.inst, report.weak_state):
            assert report.selected == _truth(self.inst)

    def test_adaptive_dominates_one_shot_under_bernstein(self):
        weak, strong = self._oracles()
        rep_stc = stc(weak, strong, k=15, **self.kwargs)
        snapshot_and_reset(weak, strong)
        rep_ace = ace(weak, strong, k=15, **self.kwargs)
        assert rep_ace.strong_calls <= rep_stc.strong_calls

    def test_adaptive_weak_phase_with_bernstein_sequence(self):
        weak, strong = self._oracles()
        report = ace_w(
            weak,
            strong,
            k=15,
            weak_budget=150 * 800,
            w_min=400,
            ci_method="empirical_bernstein",
            ci_range=1.0,
        )
        assert weak.total_pulls <= 150 * 800
        if coverage_event_holds(self.inst, report.weak_state):
            assert report.selected == _truth(self.inst)

    def test_anytime_method_as_fixed_construction(self):
        weak, strong = self._oracles()
        report = stc(weak, strong, k=15, n_weak=600, ci_method="anytime_empirical_bernstein")
        fixed = stc(*self._oracles(), k=15, **self.kwargs)
        assert report.strong_calls >= fixed.strong_calls
        if coverage_event_holds(self.inst, report.weak_state):
            assert report.selected == _truth(self.inst)


class TestEstimatorInterface:
    def test_get_and_set_params_roundtrip(self):
        certifier = AdaptiveCertify(k=10, delta=0.01, n_weak=20)
        params = certifier.get_params()
        assert params["k"] == 10 and params["delta"] == 0.01 and params["n_weak"] == 20
        certifier.set_params(delta=0.1)
        assert certifier.delta == 0.1
        clone = AdaptiveCertify(**certifier.get_params())
        assert clone.get_params() == certifier.get_params()

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            ScreenThenCertify(k=3).set_params(bogus=1)

    def test_fit_sets_attributes(self):
        inst = _random_instance(13, n=30, k=6)
        certifier = ThresholdCertify(k=6).fit(
            WeakOracle(inst, sigma=0.1, seed=1), StrongOracle(inst)
        )
        assert certifier.selected_ == certifier.report_.selected
        assert len(certifier.selected_) == 6

    def test_repr_shows_params(self):
        assert "k=4" in repr(BruteForceCertify(k=4))

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
                reports.append(stc(WeakOracle(inst, sigma=0.1, seed=seed), strong, k=20))
            else:
                reports.append(brute_force_certify(strong, k=20))
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
        report = stc(None, StrongOracle(inst), k=k, initial_state=IntervalState.full_range(n))
        assert report.trace == tuple(range(n))
        assert report.selected == _truth(inst)
