"""Tests for interval constructions, budgets, and the weak-phase builder."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from topkcert.confidence import (
    AnytimeEmpiricalBernstein,
    EmpiricalBernstein,
    SubGaussian,
    build_fixed_intervals,
    ci_method_from_config,
    epoch_delta,
)
from topkcert.certify import ScreenThenCertify
from topkcert.core import Instance, coverage_event_holds
from topkcert.oracles import StrongOracle, WeakOracle
from topkcert._hashing import gaussian_rows, item_keys


class TestBonferroni:
    @pytest.mark.parametrize(
        "delta,n,expected",
        [(0.05, 100, 5e-4), (0.05, 1, 0.05), (0.1, 10**4, 1e-5)],
    )
    def test_uniform_split(self, delta, n, expected):
        assert ScreenThenCertify(1, delta=delta)._delta_x(n) == pytest.approx(expected)

    def test_budget_split(self):
        # the exact strong oracle takes none of delta
        assert ScreenThenCertify(1, delta=0.05)._delta_x(200) == 0.05 / 200

    def test_budget_fraction(self):
        certifier = ScreenThenCertify(1, delta=0.05, delta_weak_fraction=0.5)
        assert certifier._delta_x(10) == 0.05 * 0.5 / 10

    def test_invalid(self):
        for params in (dict(delta=1.5), dict(delta=0.0), dict(delta_weak_fraction=0.0),
                       dict(delta_weak_fraction=1.5)):
            with pytest.raises(ValueError):
                ScreenThenCertify(1, **params)._delta_x(10)

    @pytest.mark.parametrize("delta_x", [0.0, 1.0, -0.1])
    def test_screen_rejects_a_per_item_budget_outside_the_unit_interval(self, delta_x):
        weak = WeakOracle(Instance(values=np.array([0.2, 0.5]), k=1), seed=0)
        with pytest.raises(ValueError, match="delta_x must lie in"):
            build_fixed_intervals(weak, 4, delta_x, SubGaussian(0.1))
        assert weak.total_pulls == 0


class TestFixedRadius:
    def test_subgaussian_closed_form(self):
        r = SubGaussian(sigma=0.1).radius(100, 0.0, 0.01)
        assert r == pytest.approx(0.1 * math.sqrt(2 * math.log(200.0) / 100), rel=1e-12)
        assert r == pytest.approx(0.03255, abs=2e-5)

    def test_subgaussian_bonferroni_defaults(self):
        # n = 10^4 items, delta 0.05, 12 pulls, sigma 0.1
        r = SubGaussian(sigma=0.1).radius(12, 0.0, 0.05 / 10**4)
        assert r == pytest.approx(0.1 * math.sqrt(2 * math.log(2 / 5e-6) / 12), rel=1e-12)
        assert r == pytest.approx(0.1466, abs=2e-4)

    def test_empirical_bernstein_zero_variance(self):
        variance = np.full(12, 0.5).var(ddof=1)
        delta_x = 5e-6
        r = EmpiricalBernstein(support_range=1.0).radius(12, variance, delta_x)
        assert r == pytest.approx(3 * math.log(3 / delta_x) / 12, rel=1e-12)

    def test_empirical_bernstein_general(self):
        rng = np.random.default_rng(1)
        values = rng.random(30)
        delta_x = 1e-3
        log_term = math.log(3 / delta_x)
        expected = math.sqrt(2 * values.var(ddof=1) * log_term / 30) + 3 * log_term / 30
        assert EmpiricalBernstein().radius(30, values.var(ddof=1), delta_x) == pytest.approx(expected)

    def test_monotone_in_count_and_delta(self):
        radii_n = [SubGaussian(0.1).radius(n, 0.0, 1e-3) for n in (2, 5, 20, 100)]
        assert radii_n == sorted(radii_n, reverse=True)
        radii_d = [SubGaussian(0.1).radius(10, 0.0, d) for d in (1e-6, 1e-4, 1e-2)]
        assert radii_d == sorted(radii_d, reverse=True)

    def test_count_preconditions(self):
        with pytest.raises(ValueError):
            EmpiricalBernstein().radius(1, 0.0, 0.01)
        with pytest.raises(ValueError):
            SubGaussian(0.1).radius(0, 0.0, 0.01)

    def test_method_from_config(self):
        assert ci_method_from_config("subgaussian", sigma=0.2) == SubGaussian(0.2)
        assert ci_method_from_config("empirical_bernstein") == EmpiricalBernstein(1.0)
        with pytest.raises(ValueError):
            ci_method_from_config("bogus")


class TestAnytimeRadius:
    def test_first_pull_falls_back_to_range_bound(self):
        delta_x = 0.01
        expected = math.sqrt(math.log(2 / epoch_delta(delta_x, 1)) / 2)
        assert AnytimeEmpiricalBernstein(1.0).radius(1, 0.0, delta_x) == pytest.approx(expected)

    def test_epoch_budgets_sum_to_delta(self):
        delta_x = 0.02
        total = sum(epoch_delta(delta_x, 2**e) for e in range(200))
        assert total <= delta_x + 1e-12
        assert total == pytest.approx(delta_x, rel=1e-2)

    def test_shrinks_within_epoch_at_fixed_variance(self):
        delta_x = 1e-3
        # counts 17..31 share one epoch; keep the variance identical
        radii = []
        for count in range(17, 32):
            m2 = 0.04 * (count - 1)
            radii.append(AnytimeEmpiricalBernstein(1.0).radius(count, m2 / (count - 1), delta_x))
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_wider_than_fixed_radius(self):
        m2 = 0.02 * 39
        anytime = AnytimeEmpiricalBernstein(1.0).radius(40, m2 / 39, 1e-3)
        assert anytime > EmpiricalBernstein().radius(40, m2 / 39, 1e-3)

    def test_subgaussian_variant_closed_form(self):
        delta_x = 1e-3
        r = SubGaussian(0.1).radius(24, 0.0, delta_x, anytime=True)
        assert r == pytest.approx(0.1 * math.sqrt(2 * math.log(2 / epoch_delta(delta_x, 24)) / 24))

    def test_general_count_closed_form(self):
        # independent evaluation of the sequence radius on a (count, variance) grid
        delta_x = 5e-4
        for count, variance in [(2, 0.0), (7, 0.03), (33, 0.25), (512, 0.01)]:
            m2 = variance * (count - 1)
            log_term = math.log(3 / (delta_x * 6 / (math.pi**2 * (math.floor(math.log2(count)) + 1) ** 2)))
            expected = math.sqrt(2 * variance * log_term / count) + 3 * log_term / count
            radius = AnytimeEmpiricalBernstein(1.0).radius(count, m2 / (count - 1), delta_x)
            assert radius == pytest.approx(expected, rel=1e-12)

    def test_time_uniform_coverage_bernoulli(self):
        # modest-scale Monte-Carlo check; the acceptance suite runs the full one
        rng = np.random.default_rng(7)
        streams, horizon, delta_x = 2000, 64, 0.05
        obs = (rng.random((streams, horizon)) < 0.5).astype(float)
        counts = np.arange(1, horizon + 1, dtype=float)
        means = np.cumsum(obs, axis=1) / counts
        sq = np.cumsum(obs * obs, axis=1)
        violated = np.zeros(streams, dtype=bool)
        for w in range(1, horizon + 1):
            if w == 1:
                r = math.sqrt(math.log(2 / epoch_delta(delta_x, 1)) / 2)
            else:
                var = np.maximum(sq[:, w - 1] - w * means[:, w - 1] ** 2, 0.0) / (w - 1)
                log_term = math.log(3 / epoch_delta(delta_x, w))
                r = np.sqrt(2 * var * log_term / w) + 3 * log_term / w
            violated |= np.abs(means[:, w - 1] - 0.5) > r
        assert violated.mean() <= delta_x


class TestFixedRadii:
    def test_anytime_bernstein_matches_scalar_radius_bitwise(self):
        rng = np.random.default_rng(4)
        counts = rng.choice([1, 2, 3, 7, 8, 12, 600], size=200)
        variances = rng.random(200) * 0.1
        variances[::7] = 0.0
        method = AnytimeEmpiricalBernstein(support_range=0.7)
        for c in np.unique(counts).tolist():
            at = counts == c
            radii = method.batch_radius(c, variances[at], 1e-4)
            # the scalar radius reads V as a pull-by-pull phase holds it
            m2 = variances[at] * max(c - 1, 0)
            expected = [method.radius(c, m / (c - 1) if c >= 2 else 0.0, 1e-4) for m in m2.tolist()]
            np.testing.assert_array_equal(radii, np.asarray(expected))

    @pytest.mark.parametrize("method", [SubGaussian(0.1), EmpiricalBernstein(0.7)])
    def test_anytime_batch_radius_of_a_fixed_method_matches_the_scalar_radius(self, method):
        # the radii of ace_w's warm start: any method, on the anytime schedule
        rng = np.random.default_rng(6)
        variances = rng.random(50) * 0.1
        for count in (1, 2, 6, 12, 600):
            radii = method.batch_radius(count, variances, 1e-4, anytime=True)
            m2 = variances * (count - 1)
            expected = [
                method.radius(count, m / (count - 1) if count >= 2 else 0.0, 1e-4, anytime=True)
                for m in m2.tolist()
            ]
            np.testing.assert_array_equal(radii, np.asarray(expected))
            if count >= method.min_count:
                assert (radii > method.batch_radius(count, variances, 1e-4)).all()

    def test_anytime_bernstein_needs_a_pull(self):
        with pytest.raises(ValueError):
            AnytimeEmpiricalBernstein().batch_radius(0, np.zeros(1), 0.01)


class TestBuildFixedIntervals:
    def test_exact_noise_covers_truth(self):
        values = np.array([0.2, 0.5, 0.9])
        inst = Instance(values=values, k=1)
        weak = WeakOracle(inst, noise="exact", seed=0)
        state = build_fixed_intervals(weak, 4, 0.05 / 3, SubGaussian(0.1))
        assert coverage_event_holds(inst, state)
        assert np.allclose(state.means, values)
        assert weak.total_pulls == 12

    def test_subgaussian_radii_are_data_independent(self):
        rng = np.random.default_rng(2)
        inst = Instance(values=rng.random(50), k=5)
        weak = WeakOracle(inst, sigma=0.1, seed=1)
        state = build_fixed_intervals(weak, 12, 0.05 / 50, SubGaussian(0.1))
        expected = 0.1 * math.sqrt(2 * math.log(2 / (0.05 / 50)) / 12)
        unclipped = (state.lower > 0) & (state.upper < 1)
        assert np.allclose(state.radius()[unclipped], expected)
        assert state.radius().max() == pytest.approx(expected)

    def test_matches_hand_rolled_reference(self):
        # independent reimplementation: raw streams -> means -> radius -> clip
        values = np.array([0.1, 0.5, 0.9])
        inst = Instance(values=values, k=1)
        seed, n_pulls, delta = 11, 6, 0.05
        weak = WeakOracle(inst, sigma=0.2, seed=seed)
        state = build_fixed_intervals(weak, n_pulls, delta / 3, SubGaussian(0.2))
        raw = values[:, None] + gaussian_rows(item_keys(seed, 3), 0, n_pulls, 0.2, np.zeros(3))
        means = raw.mean(axis=1)
        radius = 0.2 * math.sqrt(2 * math.log(2 / (delta / 3)) / n_pulls)
        np.testing.assert_allclose(state.lower, np.clip(means - radius, 0, 1))
        np.testing.assert_allclose(state.upper, np.clip(means + radius, 0, 1))

    @pytest.mark.parametrize("method", [SubGaussian(0.1), EmpiricalBernstein(1.0)])
    def test_screen_never_holds_the_observation_matrix(self, method):
        n, n_pulls = 100_000, 12
        inst = Instance(values=np.random.default_rng(5).random(n), k=10)
        weak = WeakOracle(inst, sigma=0.1, seed=5, clamp=True)
        delta_x = 0.05 / n
        tracemalloc.start()
        try:
            build_fixed_intervals(weak, n_pulls, delta_x, method)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n_pulls * 8

    @pytest.mark.parametrize(
        "method", [SubGaussian(0.3), EmpiricalBernstein(1.0), AnytimeEmpiricalBernstein(1.0)]
    )
    def test_matches_the_observation_matrix(self, method):
        n, n_pulls = 300, 5
        inst = Instance(values=np.random.default_rng(8).random(n), k=10)
        weak = WeakOracle(inst, sigma=0.3, seed=8, clamp=True)
        state = build_fixed_intervals(weak, n_pulls, 0.05 / n, method)
        weak.reset()
        obs = weak.pull_all(n_pulls)
        means = obs.mean(axis=1)
        variances = obs.var(axis=1, ddof=1) if method.reads_variance else 0.0
        radii = method.batch_radius(n_pulls, variances, 0.05 / n)
        assert state.means.tobytes() == means.tobytes()
        assert state.lower.tobytes() == np.clip(means - radii, 0.0, 1.0).tobytes()
        assert state.upper.tobytes() == np.clip(means + radii, 0.0, 1.0).tobytes()
        assert weak.total_pulls == n * n_pulls

    def test_weak_budget_enforced(self):
        inst = Instance(values=np.array([0.5, 0.6]), k=1)
        weak = WeakOracle(inst, seed=0, max_pulls=5)
        from topkcert.oracles import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            build_fixed_intervals(weak, 3, 0.05 / 2, SubGaussian(0.1))


def _reference_terms(method, count, delta_x):
    """The anytime (log term, offset) stated one pull count at a time."""
    delta = epoch_delta(delta_x, count)
    if isinstance(method, SubGaussian):
        return 0.0, method.sigma * math.sqrt(2.0 * math.log(2.0 / delta) / count)
    if count == 1:
        return 0.0, method.support_range * math.sqrt(math.log(2.0 / delta) / 2.0)
    log_term = math.log(3.0 / delta)
    return log_term, 3.0 * method.support_range * log_term / count


class TestAnytimeTerms:
    @pytest.mark.parametrize(
        "method", [SubGaussian(0.1), EmpiricalBernstein(0.7), AnytimeEmpiricalBernstein(1.0)]
    )
    def test_one_log_per_epoch_matches_terms_bitwise(self, method):
        last, delta_x = 1 << 17, 0.05 / 300
        log_terms, offsets = method.anytime_terms(1, last, delta_x)
        assert len(log_terms) == len(offsets) == last
        got = np.array([log_terms, offsets])
        one_at_a_time = np.array([method.terms(c, delta_x, True) for c in range(1, last + 1)]).T
        reference = np.array([_reference_terms(method, c, delta_x) for c in range(1, last + 1)]).T
        assert got.tobytes() == one_at_a_time.tobytes() == reference.tobytes()

    def test_runs_that_split_an_epoch_agree(self):
        method, delta_x = AnytimeEmpiricalBernstein(1.0), 1e-4
        whole = method.anytime_terms(1, 100, delta_x)
        parts = [method.anytime_terms(a, b, delta_x) for a, b in ((1, 1), (2, 40), (41, 100))]
        assert whole == tuple(sum((part[i] for part in parts), []) for i in range(2))
        assert method.anytime_terms(5, 4, delta_x) == ([], [])


class TestSharedScreen:
    def _oracle(self, n=400, clamp=False):
        inst = Instance(values=np.random.default_rng(3).random(n), k=10)
        return WeakOracle(inst, sigma=0.2, seed=3, clamp=clamp)

    def test_one_block_gives_every_caller_the_same_read_only_arrays(self):
        weak = self._oracle()
        delta_x, method = 0.05 / 400, SubGaussian(0.2)
        first = build_fixed_intervals(weak, 12, delta_x, method)
        weak.reset()
        second = build_fixed_intervals(weak, 12, delta_x, SubGaussian(0.2))
        assert first is second
        for name in ("lower", "upper", "means", "pulls"):
            array = getattr(first, name)
            assert array is getattr(second, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        np.testing.assert_array_equal(first.pulls, np.full(400, 12))
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.conflicts = 3
        assert weak.total_pulls == 400 * 12
        assert not (first.lower == first.upper).any()
        weak.reset()
        assert first.means.tobytes() == weak.pull_all_moments(12)[0].tobytes()

    def test_a_fit_with_conflicting_reveals_leaves_the_cached_screen_unchanged(self):
        weak = self._oracle()
        delta_x, method = 0.05 / 400, SubGaussian(0.2)
        screen = build_fixed_intervals(weak, 12, delta_x, method)
        lower, upper = screen.lower.tobytes(), screen.upper.tobytes()
        weak.reset()
        # strong values far from the weak ones fall outside many intervals
        flipped = Instance(values=1.0 - np.random.default_rng(3).random(400), k=10)
        report = ScreenThenCertify(10, ci_sigma=0.2).fit(weak, StrongOracle(flipped)).report_
        assert report.weak_state is screen and report.interval_conflicts > 0
        assert screen.conflicts == 0
        weak.reset()
        assert build_fixed_intervals(weak, 12, delta_x, method) is screen
        assert screen.lower.tobytes() == lower and screen.upper.tobytes() == upper

    @pytest.mark.parametrize(
        "delta, method",
        [(0.1, SubGaussian(0.2)), (0.05, SubGaussian(0.3)), (0.05, EmpiricalBernstein(1.0)),
         (0.05, AnytimeEmpiricalBernstein(1.0))],
    )
    def test_another_delta_method_or_schedule_builds_a_new_screen(self, delta, method):
        weak = self._oracle()
        base = build_fixed_intervals(weak, 12, 0.05 / 400, SubGaussian(0.2))
        weak.reset()
        other = build_fixed_intervals(weak, 12, delta / 400, method)
        assert other.lower is not base.lower
        assert other.lower.tobytes() != base.lower.tobytes()
        weak.reset()
        fresh = self._oracle()
        alone = build_fixed_intervals(fresh, 12, delta / 400, method)
        assert other.lower.tobytes() == alone.lower.tobytes()
        assert other.upper.tobytes() == alone.upper.tobytes()

    def test_another_position_or_count_builds_a_new_screen(self):
        weak = self._oracle()
        delta_x, method = 0.05 / 400, SubGaussian(0.2)
        first = build_fixed_intervals(weak, 12, delta_x, method)
        later = build_fixed_intervals(weak, 12, delta_x, method)
        weak.reset()
        shorter = build_fixed_intervals(weak, 6, delta_x, method)
        assert len({id(first.lower), id(later.lower), id(shorter.lower)}) == 3
        assert later.pulls[0] == 12 and shorter.pulls[0] == 6

    def test_a_screen_is_checked_when_built(self):
        # a method whose radii are NaN makes every bound NaN; a screen that
        # fails its check is not cached, so each build checks it again
        class NanRadius(SubGaussian):
            def _run_terms(self, counts, delta, anytime):
                return [0.0] * len(counts), [math.nan] * len(counts)

        inst = Instance(values=np.array([0.1, 0.5, 0.9]), k=1)
        weak = WeakOracle(inst, seed=0)
        for _ in range(2):
            with pytest.raises(ValueError, match="NaN bound"):
                build_fixed_intervals(weak, 4, 0.05 / 3, NanRadius(0.1))
            weak.reset()
