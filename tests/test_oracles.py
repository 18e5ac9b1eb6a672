"""Tests for oracle determinism, counters, and budget enforcement."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkcert import _hashing
from topkcert._hashing import ROW_BLOCK
from topkcert.core import Instance
from topkcert.oracles import (
    _AHEAD,
    BudgetExceededError,
    OracleStats,
    StrongOracle,
    WeakOracle,
    snapshot_and_reset,
)
from topkcert.validation import check_int, check_item, check_non_negative


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


class _ReferenceWeakOracle:
    """The weak oracle before lookahead windows: every scalar pull hashes on its own."""

    def __init__(self, instance, noise="gaussian", sigma=0.1, seed=0, clamp=False, max_pulls=None):
        if noise not in ("gaussian", "exact"):
            raise ValueError(f"noise must be one of ('gaussian', 'exact'), got {noise!r}")
        if noise == "gaussian":
            check_non_negative(sigma, "sigma")
        self._instance = instance
        self.noise = noise
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.clamp = bool(clamp)
        self.max_pulls = None if max_pulls is None else check_int(max_pulls, "max_pulls", minimum=0)
        self._keys = _hashing.item_keys(self.seed, instance.n)
        self._keys_int = self._keys.tolist()
        self._values = instance.values.tolist()
        self._n = instance.n
        self._counts = [0] * instance.n
        self.total_pulls = 0
        self._block_cache = {}

    @property
    def n_items(self):
        return self._n

    @property
    def pulls_per_item(self):
        return np.asarray(self._counts, dtype=np.int64)

    def _charge(self, amount):
        if self.max_pulls is not None and self.total_pulls + amount > self.max_pulls:
            raise BudgetExceededError("weak", self.max_pulls)
        self.total_pulls += amount

    def pull(self, x):
        if not 0 <= x < self._n:
            raise ValueError(f"item must lie in [0, {self._n}), got {x}")
        t = self._counts[x]
        self._charge(1)
        self._counts[x] = t + 1
        value = self._values[x]
        if self.noise == "gaussian":
            value = value + _hashing.gaussian_scalar(self._keys_int[x], t, self.sigma)
            if self.clamp:
                value = min(1.0, max(0.0, value))
        return value

    def pull_block(self, x, count):
        x = check_item(x, self.n_items)
        count = check_int(count, "count", minimum=1)
        self._charge(count)
        t0 = self._counts[x]
        self._counts[x] = t0 + count
        if self.noise == "exact":
            return np.full(count, self._values[x])
        obs = self._values[x] + _hashing.gaussian_block(self._keys_int[x], t0, count, self.sigma)
        return np.clip(obs, 0.0, 1.0) if self.clamp else obs

    def pull_all(self, count):
        count = check_int(count, "count", minimum=1)
        n = self.n_items
        t0 = self._counts[0]
        if self._counts.count(t0) != n:
            raise ValueError("pull_all requires uniform per-item pull counts")
        self._charge(n * count)
        self._counts = [t0 + count] * n
        key = (t0, count)
        cached = self._block_cache.get(key)
        if cached is None:
            values = self._instance.values
            if self.noise == "exact":
                cached = np.tile(values[:, None], (1, count))
            else:
                cached = _hashing.gaussian_matrix(self._keys, t0, count, self.sigma, values)
                if self.clamp:
                    np.clip(cached, 0.0, 1.0, out=cached)
            cached.flags.writeable = False
            self._block_cache[key] = cached
        return cached

    def reset(self):
        self._counts = [0] * self.n_items
        self.total_pulls = 0


def _bits(result):
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return type(result), struct.pack("<d", result)


def _apply(oracle, op):
    """(result bits or the type of the exception raised, total_pulls) of one call."""
    name, *args = op
    try:
        if name == "pulls_per_item":
            result = _bits(oracle.pulls_per_item)
        elif name == "reset":
            result = oracle.reset()
        else:
            result = _bits(getattr(oracle, name)(*args))
    except (BudgetExceededError, ValueError) as exc:
        result = type(exc)
    return result, oracle.total_pulls


def _expand(op, n):
    """Scripted bursts as single calls: a stride over the items, or one item again and again."""
    name, *args = op
    if name == "stride":
        start, step, count = args
        return [("pull", (start + i * step) % n) for i in range(count)]
    if name == "repeat":
        x, count = args
        return [("pull", x % n)] * count
    if name in ("pull", "pull_block"):
        return [(name, args[0] % n, *args[1:])]
    return [op]


def _assert_matches_reference(instance, ops, **params):
    reference = _ReferenceWeakOracle(instance, **params)
    weak = WeakOracle(instance, **params)
    for op in ops:
        for call in _expand(op, instance.n):
            assert _apply(weak, call) == _apply(reference, call), call
        np.testing.assert_array_equal(weak.pulls_per_item, reference.pulls_per_item)


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("pull"), st.integers(0, 10**6)),
        st.tuples(st.just("stride"), st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 400)),
        st.tuples(st.just("repeat"), st.integers(0, 10**6), st.integers(1, 60)),
        st.tuples(st.just("pull_block"), st.integers(0, 10**6), st.integers(1, 20)),
        st.tuples(st.just("pull_all"), st.integers(1, 3)),
        st.just(("reset",)),
        st.just(("pulls_per_item",)),
    ),
    max_size=25,
)


class TestLookahead:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        n=st.sampled_from([3, 90, ROW_BLOCK + 37]),
        noise=st.sampled_from(["gaussian", "exact"]),
        clamp=st.booleans(),
        max_pulls=st.one_of(st.none(), st.integers(0, 3000)),
        ops=_OPS,
    )
    def test_matches_reference_under_any_interleaving(self, n, noise, clamp, max_pulls, ops):
        instance = Instance(values=np.random.default_rng(n).random(n), k=1)
        # sigma wide enough that clamping changes some observations
        _assert_matches_reference(
            instance, ops, noise=noise, sigma=0.6, seed=5, clamp=clamp, max_pulls=max_pulls
        )

    @pytest.mark.parametrize("clamp, sigma", [(False, 0.6), (True, 0.6), (True, 0.0)])
    def test_scripted_paths_match_reference(self, clamp, sigma):
        # every path at least once: refills of waiting items, the fill of
        # items at the shared position across row blocks, windows that
        # outlive pull_block and pull_all, one item's long run, the budget;
        # with sigma 0, a clamped -0.0 value must read 0.0 as on the scalar path
        n = ROW_BLOCK + 37
        values = np.random.default_rng(1).random(n)
        values[::5] = -0.0
        instance = Instance(values=values, k=1)
        ops = [
            ("pull_all", 2),
            ("stride", 0, 7, 600),
            ("stride", 0, 1, n),
            ("repeat", 11, 300),
            ("pull_block", 11, 5),
            ("stride", 3, 5, 900),
            ("pull_all", 1),
            ("reset",),
            ("stride", 0, 1, n),
            ("stride", 0, 1, n),
            ("pull_all", 1),
            ("stride", 0, 3, 2000),
        ]
        _assert_matches_reference(instance, ops, sigma=sigma, seed=3, clamp=clamp)
        _assert_matches_reference(instance, ops, sigma=sigma, seed=3, clamp=clamp, max_pulls=9000)

    def test_items_waiting_at_pull_all_are_refilled_from_their_new_position(self):
        # _AHEAD + 1 rounds over every item leave the items whose windows came
        # from the shared position waiting at a uniform position; after
        # pull_all, the next refill must start their windows past its block
        instance = Instance(values=np.random.default_rng(6).random(100), k=1)
        ops = [("stride", 0, 1, 100 * (_AHEAD + 1)), ("pull_all", 1), ("stride", 0, 1, 200)]
        _assert_matches_reference(instance, ops, sigma=0.1, seed=8)

    def test_budget_error_leaves_counters(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0, max_pulls=70)
        for x in range(70):
            weak.pull(x % instance.n)
        before = weak.pulls_per_item.copy()
        with pytest.raises(BudgetExceededError):
            weak.pull(0)
        assert weak.total_pulls == 70
        np.testing.assert_array_equal(weak.pulls_per_item, before)

    def test_one_item_pulled_again_and_again_allocates_no_n_sized_buffer(self):
        n = 200_000
        instance = Instance(values=np.random.default_rng(2).random(n), k=1)
        reference = _ReferenceWeakOracle(instance, sigma=0.1, seed=4)
        expected = [reference.pull(0) for _ in range(500)]
        weak = WeakOracle(instance, sigma=0.1, seed=4)
        tracemalloc.start()
        try:
            observed = [weak.pull(0) for _ in range(500)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert observed == expected
        # an n-sized buffer of one double or int64 per item is 1.6 MB
        assert peak < 1_000_000


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


def _scalar_loop(strong, items):
    """What ``query_many(items)`` stands for: the values, then the error raised, if any."""
    values = []
    try:
        for x in items:
            values.append(strong.query(x))
    except (ValueError, BudgetExceededError) as err:
        return values, type(err), str(err)
    return values, None, None


class _RecordingStrongOracle(StrongOracle):
    def __init__(self, instance, **kwargs):
        super().__init__(instance, **kwargs)
        self.seen = []

    def query(self, x):
        self.seen.append(x)
        return super().query(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_query_many_matches_a_scalar_query_loop(data):
    n = data.draw(st.integers(1, 30))
    values = np.array(data.draw(st.lists(
        st.one_of(st.floats(0.0, 1.0), st.just(-0.0)), min_size=n, max_size=n)))
    instance = Instance(values=values, k=1)
    cap = data.draw(st.one_of(st.none(), st.integers(0, 12)))
    history = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    item = st.one_of(st.integers(0, n - 1), st.integers(-3, -1), st.integers(n, n + 3),
                     st.just(2**62))
    items = data.draw(st.lists(item, max_size=15))
    as_array = data.draw(st.booleans())
    batch, loop = StrongOracle(instance, cap=cap), StrongOracle(instance, cap=cap)
    for strong in (batch, loop):
        for x in history[: cap if cap is not None else None]:
            strong.query(x)
    expected, error, message = _scalar_loop(loop, items)
    if error is None:
        got = batch.query_many(np.array(items, dtype=np.int64) if as_array else items)
        assert got.dtype == np.float64 and got.tobytes() == np.array(expected).tobytes()
    else:
        with pytest.raises(error) as raised:
            batch.query_many(np.array(items, dtype=np.int64) if as_array else items)
        assert str(raised.value) == message
    assert batch.calls == loop.calls
    assert batch.trace == loop.trace
    assert all(type(x) is int for x in batch.trace)
    # the state after an error takes the loop on exactly as after scalar queries
    assert _scalar_loop(batch, [0, n - 1]) == _scalar_loop(loop, [0, n - 1])
    assert batch.trace == loop.trace


class TestQueryMany:
    def test_trace_shares_the_callers_ints(self):
        strong = StrongOracle(Instance(values=np.linspace(0.0, 1.0, 1000), k=1))
        # ints above 256 are distinct objects in CPython
        items = [int(text) for text in ("700", "301", "700")]
        strong.query_many(items)
        assert strong.trace == items
        assert all(a is b for a, b in zip(strong.trace, items))

    def test_numpy_integers_in_a_list_are_traced_as_ints(self, instance):
        strong = StrongOracle(instance)
        strong.query_many([np.int64(2), np.uint8(5)])
        assert strong.trace == [2, 5] and all(type(x) is int for x in strong.trace)

    @pytest.mark.parametrize("items", [[0.0, 1.0], np.array([1, 2], dtype=float), [1, 2.5],
                                       [True, False], np.zeros((1, 2), dtype=np.int64)])
    def test_non_integer_items_raise_before_counting(self, instance, items):
        strong = StrongOracle(instance)
        with pytest.raises(TypeError):
            strong.query_many(items)
        assert strong.calls == 0 and strong.trace == []

    def test_empty_batch(self, instance):
        strong = StrongOracle(instance, cap=0)
        for items in ([], np.zeros(0, dtype=np.int64)):
            got = strong.query_many(items)
            assert got.dtype == np.float64 and got.size == 0
        assert strong.calls == 0 and strong.trace == []

    def test_an_overriding_query_sees_every_item(self, instance):
        strong = _RecordingStrongOracle(instance, cap=3)
        with pytest.raises(BudgetExceededError):
            strong.query_many([4, 0, 4, 9])
        assert strong.seen == [4, 0, 4, 9]
        assert strong.calls == 3 and strong.trace == [4, 0, 4]
