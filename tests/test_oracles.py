"""Tests for oracle determinism, counters, and budget enforcement."""

import numpy as np
import pytest

from topkcert._hashing import ROW_BLOCK
from topkcert.core import Instance
from topkcert.oracles import (
    BudgetExceededError,
    OracleStats,
    StrongOracle,
    WeakOracle,
    snapshot_and_reset,
)


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    return Instance(values=rng.random(20), k=5)


class TestWeakOracle:
    def test_exact_noise_returns_truth(self, instance):
        weak = WeakOracle(instance, noise="exact", seed=3)
        for x in range(instance.n):
            assert weak.pull(x) == instance.values[x]

    def test_replay_is_identical(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=42)
        first = [weak.pull(3) for _ in range(10)]
        weak.reset()
        second = [weak.pull(3) for _ in range(10)]
        assert first == second

    def test_scalar_block_and_matrix_paths_agree_bitwise(self, instance):
        a = WeakOracle(instance, sigma=0.1, seed=7)
        b = WeakOracle(instance, sigma=0.1, seed=7)
        c = WeakOracle(instance, sigma=0.1, seed=7)
        matrix = a.pull_all(8)
        for x in range(instance.n):
            block = b.pull_block(x, 8)
            singles = [c.pull(x) for _ in range(8)]
            assert list(matrix[x]) == list(block) == singles

    @pytest.mark.parametrize("clamp", [False, True])
    def test_pull_all_matches_scalar_paths_across_row_blocks(self, clamp):
        n = 2 * ROW_BLOCK + 37
        inst = Instance(values=np.random.default_rng(3).random(n), k=5)
        # sigma wide enough that clamping changes some observations
        a, b, c = (WeakOracle(inst, sigma=0.3, seed=11, clamp=clamp) for _ in range(3))
        for weak in (a, b, c):
            weak.pull_all(2)
        matrix = a.pull_all(3)
        blocks = np.array([b.pull_block(x, 3) for x in range(n)])
        singles = np.array([[c.pull(x) for _ in range(3)] for x in range(n)])
        assert matrix.tobytes() == blocks.tobytes() == singles.tobytes()
        assert clamp == bool(np.any((matrix == 0.0) | (matrix == 1.0)))

    def test_pull_rejects_out_of_range_item(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        for x in (-1, instance.n):
            with pytest.raises(ValueError):
                weak.pull(x)
        assert weak.total_pulls == 0
        assert not weak.pulls_per_item.any()

    def test_streams_differ_across_items_and_seeds(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=1)
        other = WeakOracle(instance, sigma=0.1, seed=2)
        assert weak.pull(0) != weak.pull(1)
        weak.reset()
        assert weak.pull(0) != other.pull(0)

    def test_sample_mean_converges(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=5)
        obs = weak.pull_block(4, 100_000)
        assert abs(obs.mean() - instance.values[4]) < 0.002

    def test_counters(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        weak.pull(2)
        weak.pull(2)
        weak.pull(5)
        assert weak.total_pulls == 3
        assert weak.pulls_per_item[2] == 2
        assert weak.pulls_per_item[5] == 1

    def test_budget_error(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0, max_pulls=2)
        weak.pull(0)
        weak.pull(0)
        with pytest.raises(BudgetExceededError):
            weak.pull(0)

    def test_clamp_mode(self, instance):
        weak = WeakOracle(instance, sigma=5.0, seed=0, clamp=True)
        obs = weak.pull_all(20)
        assert obs.min() >= 0.0 and obs.max() <= 1.0

    def test_pull_all_requires_uniform_positions(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        weak.pull(0)
        with pytest.raises(ValueError):
            weak.pull_all(2)

    def test_pull_all_block_is_read_only(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        block = weak.pull_all(4)
        first = block.copy()
        with pytest.raises(ValueError):
            block[0, 0] = 99.0
        weak.reset()
        np.testing.assert_array_equal(weak.pull_all(4), first)

    def test_invalid_noise_model(self, instance):
        with pytest.raises(ValueError):
            WeakOracle(instance, noise="cauchy")


class TestStrongOracle:
    def test_exact_values_and_trace(self, instance):
        strong = StrongOracle(instance)
        assert strong.query(3) == instance.values[3]
        assert strong.query(3) == instance.values[3]
        assert strong.calls == 2
        assert strong.trace == [3, 3]

    def test_query_rejects_out_of_range_item(self, instance):
        strong = StrongOracle(instance)
        for x in (-1, instance.n):
            with pytest.raises(ValueError):
                strong.query(x)
        assert strong.calls == 0 and strong.trace == []

    def test_cap(self, instance):
        strong = StrongOracle(instance, cap=0)
        with pytest.raises(BudgetExceededError):
            strong.query(0)


class TestSnapshotAndReset:
    def test_fresh_stats_are_zero(self, instance):
        stats = OracleStats.collect(WeakOracle(instance, seed=0), StrongOracle(instance))
        assert stats.weak_pulls_total == 0
        assert stats.strong_calls == 0
        assert stats.strong_query_trace == ()

    def test_snapshot_then_replay(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=9)
        strong = StrongOracle(instance)
        first = weak.pull_all(4).copy()
        strong.query(1)
        stats = snapshot_and_reset(weak, strong)
        assert stats.weak_pulls_total == instance.n * 4
        assert stats.strong_calls == 1
        assert stats.strong_query_trace == (1,)
        assert weak.total_pulls == 0 and strong.calls == 0
        # identical observations for the next consumer
        np.testing.assert_array_equal(weak.pull_all(4), first)

    def test_counter_conservation(self, instance):
        strong = StrongOracle(instance)
        for x in (0, 4, 2):
            strong.query(x)
        stats = OracleStats.collect(None, strong)
        assert stats.strong_calls == len(stats.strong_query_trace) == 3
