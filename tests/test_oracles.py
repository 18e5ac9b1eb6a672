"""Tests for oracle determinism, counters, and budget enforcement."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from topkcert import _hashing
from topkcert._hashing import ROW_BLOCK
from topkcert.core import Instance
from topkcert.oracles import (
    SIGMA_MAX,
    BudgetExceededError,
    OracleStats,
    StrongOracle,
    WeakOracle,
    snapshot_and_reset,
)
from topkcert.validation import check_int, check_non_negative


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
        matrix = a.pull_all(8)
        for x in range(instance.n):
            singles = [b.pull(x) for _ in range(8)]
            assert list(matrix[x]) == singles

    @pytest.mark.parametrize("clamp", [False, True])
    def test_pull_all_matches_scalar_paths_across_row_blocks(self, clamp):
        n = 2 * ROW_BLOCK + 37
        inst = Instance(values=np.random.default_rng(3).random(n), k=5)
        # sigma wide enough that clamping changes some observations
        a, b = (WeakOracle(inst, sigma=0.3, seed=11, clamp=clamp) for _ in range(2))
        for weak in (a, b):
            weak.pull_all(2)
        matrix = a.pull_all(3)
        singles = np.array([[b.pull(x) for _ in range(3)] for x in range(n)])
        assert matrix.tobytes() == singles.tobytes()
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
        means, _ = weak.pull_all_moments(100_000)
        assert abs(means[4] - instance.values[4]) < 0.002

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

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_seed_must_be_an_integer(self, instance, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            WeakOracle(instance, seed=seed)

    @pytest.mark.parametrize("sigma, message", [
        (np.inf, "sigma must be finite"), (-0.1, "sigma must be >= 0"), (np.nan, "sigma must be >= 0"),
        # its draws overflow to +-inf and a screen's means to NaN
        (1e308, r"sigma must be at most 1e\+100"),
        (np.nextafter(SIGMA_MAX, np.inf), r"at most 1e\+100"),
    ])
    def test_sigma_must_be_finite_and_non_negative(self, instance, sigma, message):
        with pytest.raises(ValueError, match=message):
            WeakOracle(instance, sigma=sigma)

    @pytest.mark.parametrize("name, value", [
        ("noise", "exact"), ("sigma", 0.3), ("seed", 7), ("clamp", True),
    ])
    def test_stream_settings_are_read_only(self, instance, name, value):
        # the streams and the cached blocks and screens are fixed by these at
        # construction, so a later change would replay stale draws
        weak = WeakOracle(instance, sigma=0.1, seed=3)
        before = getattr(weak, name)
        with pytest.raises(AttributeError):
            setattr(weak, name, value)
        assert getattr(weak, name) == before
        assert (weak.noise, weak.sigma, weak.seed, weak.clamp) == ("gaussian", 0.1, 3, False)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_the_largest_sigma_gives_finite_screens_and_reveals(self, clamp):
        instance = Instance(values=np.linspace(0.0, 1.0, 40), k=5)
        weak = WeakOracle(instance, sigma=SIGMA_MAX, seed=3, clamp=clamp)
        means, variances = weak.pull_all_moments(12, variance=True)
        assert np.isfinite(means).all() and np.isfinite(variances).all()
        assert np.isfinite(weak.pull_many(np.arange(40))).all()


class _RecordingPullAllOracle(WeakOracle):
    """Records the count of every call of an overriding ``pull_all``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pull_all_counts = []

    def pull_all(self, count):
        self.pull_all_counts.append(count)
        return super().pull_all(count)


class TestPullAllMoments:
    @pytest.mark.parametrize("noise, clamp", [("gaussian", False), ("gaussian", True), ("exact", False)])
    def test_match_the_block_reductions_bitwise(self, noise, clamp):
        # a partial last row block, and a start position above 0
        n = 2 * ROW_BLOCK + 3
        inst = Instance(values=np.random.default_rng(4).random(n), k=5)
        # sigma wide enough that clamping changes some observations
        a, b, c = (WeakOracle(inst, noise=noise, sigma=0.3, seed=2, clamp=clamp) for _ in range(3))
        for weak in (a, b, c):
            weak.pull_all(2)
        block = a.pull_all(12)
        means, variances = b.pull_all_moments(12, variance=True)
        only_means, none = c.pull_all_moments(12)
        assert none is None
        assert means.tobytes() == only_means.tobytes() == block.mean(axis=1).tobytes()
        assert variances.tobytes() == block.var(axis=1, ddof=1).tobytes()
        assert a.total_pulls == b.total_pulls == c.total_pulls == n * 14
        for weak in (b, c):
            np.testing.assert_array_equal(weak.pulls_per_item, a.pulls_per_item)
        assert clamp == bool(np.any((block == 0.0) | (block == 1.0)))

    def test_exact_means_match_a_tiled_block(self):
        # the mean of equal values need not be that value; the tile's is the reference
        inst = Instance(values=np.array([0.1, 0.7, 1 / 3, 0.0, 1.0]), k=1)
        means, variances = WeakOracle(inst, noise="exact").pull_all_moments(3, variance=True)
        tiled = np.tile(inst.values[:, None], (1, 3))
        assert means.tobytes() == tiled.mean(axis=1).tobytes()
        assert variances.tobytes() == tiled.var(axis=1, ddof=1).tobytes()

    def test_requires_uniform_positions(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        weak.pull(0)
        for call in (weak.pull_all, weak.pull_all_moments):
            with pytest.raises(ValueError, match="uniform per-item pull counts"):
                call(2)
        assert weak.total_pulls == 1

    @pytest.mark.parametrize("scalar_first", [False, True])
    def test_budget_error_leaves_counters(self, instance, scalar_first):
        n = instance.n
        for call in ("pull_all", "pull_all_moments"):
            weak = WeakOracle(instance, sigma=0.1, seed=0, max_pulls=5 * n - 1)
            weak.pull_all_moments(3)
            if scalar_first:
                for x in range(n):
                    weak.pull(x)
            before = weak.pulls_per_item.copy()
            total = weak.total_pulls
            with pytest.raises(BudgetExceededError):
                getattr(weak, call)(2)
            assert weak.total_pulls == total
            np.testing.assert_array_equal(weak.pulls_per_item, before)

    def test_variance_of_one_pull_is_rejected_before_charging(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        with pytest.raises(ValueError, match="count must be >= 2"):
            weak.pull_all_moments(1, variance=True)
        assert weak.total_pulls == 0

    def test_moments_are_read_only(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        means, variances = weak.pull_all_moments(4, variance=True)
        first = means.copy(), variances.copy()
        for array in (means, variances):
            with pytest.raises(ValueError):
                array[0] = 99.0
        weak.reset()
        # a means-only call replays the same means
        assert _bits(weak.pull_all_moments(4)[0]) == _bits(means)
        weak.reset()
        replay = weak.pull_all_moments(4, variance=True)
        for got, want in zip(replay, first):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("variance", [False, True])
    def test_a_replayed_block_gives_equal_distinct_read_only_moments(self, instance, variance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        first = weak.pull_all_moments(4, variance=variance)
        weak.reset()
        second = weak.pull_all_moments(4, variance=variance)
        assert _bits(first) == _bits(second)
        for a, b in zip(first, second):
            if a is not None:
                assert not np.shares_memory(a, b)
                assert not a.flags.writeable and not b.flags.writeable
        assert (second[1] is None) != variance

    def test_pulls_per_item_at_the_shared_position_is_a_read_only_view(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        for count in (0, 3, 7):
            if count:
                weak.pull_all_moments(count - weak.pulls_per_item[0])
            got = weak.pulls_per_item
            assert _bits(got) == _bits(np.full(instance.n, count, dtype=np.int64))
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1
        weak.pull(2)
        assert weak.pulls_per_item.flags.writeable
        assert list(weak.pulls_per_item[:3]) == [7, 7, 8]

    def test_a_screen_is_built_once_per_block_and_key(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        built = []

        def build(means, variances):
            built.append((means, variances))
            return object()

        first = weak.pull_all_screen(4, True, "a", build)
        weak.reset()
        assert weak.pull_all_screen(4, True, "a", build) is first
        assert weak.total_pulls == 4 * instance.n
        weak.reset()
        assert weak.pull_all_screen(4, True, "b", build) is not first
        assert weak.pull_all_screen(4, True, "a", build) is not first
        assert len(built) == 3
        weak.reset()
        assert _bits(weak.pull_all_moments(4, variance=True)) == _bits(built[0])

    def test_an_overriding_pull_all_builds_every_screen(self, instance):
        weak = _RecordingPullAllOracle(instance, sigma=0.1, seed=3)
        plain = WeakOracle(instance, sigma=0.1, seed=3)
        for oracle, builds in ((weak, 2), (plain, 1)):
            built = []
            for _ in range(2):
                oracle.pull_all_screen(3, True, "a", lambda *moments: built.append(moments))
                oracle.reset()
            assert len(built) == builds
            assert _bits(built[0]) == _bits(plain.pull_all_moments(3, variance=True))
            plain.reset()
        assert weak.pull_all_counts == [3, 3]

    def test_overriding_pull_all_is_called_once_per_screen(self, instance):
        plain = WeakOracle(instance, sigma=0.1, seed=3)
        weak = _RecordingPullAllOracle(instance, sigma=0.1, seed=3)
        for variance in (False, True):
            got = weak.pull_all_moments(3, variance=variance)
            assert _bits(got) == _bits(plain.pull_all_moments(3, variance=variance))
        assert weak.pull_all_counts == [3, 3]
        assert weak.total_pulls == plain.total_pulls


class _ReferenceWeakOracle:
    """A weak oracle of Python lists: every pull hashes on its own, one at a time."""

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

    def pull_many(self, items):
        return np.array([self.pull(x) for x in items], dtype=np.float64)

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
                cached = _hashing.gaussian_rows(self._keys, t0, count, self.sigma, values)
                if self.clamp:
                    np.clip(cached, 0.0, 1.0, out=cached)
            cached.flags.writeable = False
            self._block_cache[key] = cached
        return cached

    def pull_all_moments(self, count, variance=False):
        count = check_int(count, "count", minimum=2 if variance else 1)
        block = self.pull_all(count)
        return block.mean(axis=1), block.var(axis=1, ddof=1) if variance else None

    def reset(self):
        self._counts = [0] * self.n_items
        self.total_pulls = 0


def _bits(result):
    if result is None:
        return None
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
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
    if name == "pull":
        return [(name, args[0] % n)]
    if name == "pull_many":
        # items from the stream, and an out-of-range one where it is -1
        items, as_array = args
        items = [x % n if x >= 0 else n for x in items]
        return [(name, np.array(items, dtype=np.int64) if as_array else items)]
    return [op]


def _assert_matches_reference(instance, ops, **params):
    reference = _ReferenceWeakOracle(instance, **params)
    weak = WeakOracle(instance, **params)
    for op in ops:
        for call in _expand(op, instance.n):
            assert _apply(weak, call) == _apply(reference, call), call
        np.testing.assert_array_equal(weak.pulls_per_item, reference.pulls_per_item)


_OP_KINDS = (
    st.tuples(st.just("pull"), st.integers(0, 10**6)),
    st.tuples(st.just("stride"), st.integers(0, 10**6), st.integers(1, 9), st.integers(1, 400)),
    st.tuples(st.just("repeat"), st.integers(0, 10**6), st.integers(1, 60)),
    st.tuples(st.just("pull_all"), st.integers(1, 3)),
    st.tuples(
        st.just("pull_many"),
        st.lists(st.one_of(st.integers(0, 10**6), st.just(-1)), max_size=120),
        st.booleans(),
    ),
    st.just(("reset",)),
    st.just(("pulls_per_item",)),
)
_OPS = st.lists(st.one_of(*_OP_KINDS), max_size=25)
_MOMENT_OPS = st.lists(
    st.one_of(
        *_OP_KINDS, st.tuples(st.just("pull_all_moments"), st.integers(1, 3), st.booleans())
    ),
    max_size=25,
)


def _resident_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


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
        # strides across row blocks, strides and one item's long run around
        # pull_all and reset, the budget; with sigma 0, a clamped -0.0 value
        # must read 0.0 on every path
        n = ROW_BLOCK + 37
        values = np.random.default_rng(1).random(n)
        values[::5] = -0.0
        instance = Instance(values=values, k=1)
        ops = [
            ("pull_all", 2),
            ("stride", 0, 7, 600),
            ("stride", 0, 1, n),
            ("repeat", 11, 300),
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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        noise=st.sampled_from(["gaussian", "exact"]),
        clamp=st.booleans(),
        max_pulls=st.one_of(st.none(), st.integers(0, 3000)),
        ops=_MOMENT_OPS,
    )
    def test_moments_match_reference_under_any_interleaving(self, noise, clamp, max_pulls, ops):
        instance = Instance(values=np.random.default_rng(90).random(90), k=1)
        _assert_matches_reference(
            instance, ops, noise=noise, sigma=0.6, seed=5, clamp=clamp, max_pulls=max_pulls
        )

    def test_items_waiting_at_pull_all_are_refilled_from_their_new_position(self):
        # 17 rounds over every item leave every item at a uniform position;
        # pull_all must then start its block there, and the pulls after it
        # past its block
        instance = Instance(values=np.random.default_rng(6).random(100), k=1)
        ops = [("stride", 0, 1, 100 * 17), ("pull_all", 1), ("stride", 0, 1, 200)]
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

    def test_one_item_pulled_again_and_again_commits_no_n_sized_memory(self):
        # tracemalloc does not see memory maps, so read resident pages instead
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm")
        instance = Instance(values=np.random.default_rng(3).random(1_000_000), k=1)
        weak = WeakOracle(instance, sigma=0.1, seed=5)
        before = _resident_bytes()
        for _ in range(500):
            weak.pull(0)
        # n positions of 8 bytes each would be 8 MB
        assert _resident_bytes() - before < 4_000_000

    def test_a_pull_after_a_screen_commits_one_position_per_item(self):
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm")
        instance = Instance(values=np.random.default_rng(3).random(1_000_000), k=1)
        weak = WeakOracle(instance, sigma=0.1, seed=5)
        weak.pull_all_moments(2)
        before = _resident_bytes()
        weak.pull(0)
        # every item leaves the shared position 2: one int64 each is 8 MB
        assert _resident_bytes() - before < 12_000_000
        assert weak.pulls_per_item[:2].tolist() == [3, 2]


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

    @pytest.mark.parametrize("item", [True, 1.5, np.float64(2.0)])
    def test_query_rejects_non_integer_items_as_pull_does(self, instance, item):
        strong = StrongOracle(instance)
        for access in (strong.query, WeakOracle(instance, sigma=0.1, seed=0).pull):
            with pytest.raises(TypeError, match=r"^item must be an integer, got "):
                access(item)
        assert strong.calls == 0 and strong.trace == []

    def test_query_traces_numpy_integers_as_ints(self, instance):
        strong = StrongOracle(instance)
        assert strong.query(np.int64(3)) == instance.values[3]
        assert strong.trace == [3] and type(strong.trace[0]) is int


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
                                       [True, False], np.zeros((1, 2), dtype=np.int64),
                                       [0, True], [2, np.True_], (False, 3)])
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


class _RecordingWeakOracle(WeakOracle):
    def __init__(self, instance, **kwargs):
        super().__init__(instance, **kwargs)
        self.seen = []

    def pull(self, x):
        self.seen.append(x)
        return super().pull(x)


class TestPullMany:
    def test_overrun_in_a_batch_charges_the_pulls_before_it(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=2, max_pulls=6)
        loop = _ReferenceWeakOracle(instance, sigma=0.1, seed=2, max_pulls=6)
        for oracle in (weak, loop):
            oracle.pull(3)
            oracle.pull(3)
        for x in (3, 0, 3, 7):
            loop.pull(x)
        with pytest.raises(BudgetExceededError):
            weak.pull_many([3, 0, 3, 7, 3, 1])
        assert weak.total_pulls == 6
        np.testing.assert_array_equal(weak.pulls_per_item, loop.pulls_per_item)
        # the streams go on from where the charged pulls left them
        weak.max_pulls = loop.max_pulls = None
        assert [weak.pull(x) for x in (3, 0, 7, 1)] == [loop.pull(x) for x in (3, 0, 7, 1)]

    def test_matches_a_pull_loop_with_repeats(self, instance):
        weak = WeakOracle(instance, sigma=0.3, seed=4, clamp=True)
        loop = WeakOracle(instance, sigma=0.3, seed=4, clamp=True)
        items = [5, 5, 0, 19, 5, 0, 7] * 3
        got = weak.pull_many(np.array(items))
        assert got.dtype == np.float64
        assert got.tobytes() == np.array([loop.pull(x) for x in items]).tobytes()
        np.testing.assert_array_equal(weak.pulls_per_item, loop.pulls_per_item)
        assert weak.total_pulls == loop.total_pulls == len(items)

    @pytest.mark.parametrize("items", [[True, False], [1, True], [2, np.True_],
                                       np.array([True]), [0.0, 1.0], [1, 2.5],
                                       np.zeros((1, 2), dtype=np.int64)])
    def test_non_integer_items_raise_before_counting(self, instance, items):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        with pytest.raises(TypeError):
            weak.pull_many(items)
        assert weak.total_pulls == 0 and not weak.pulls_per_item.any()

    def test_out_of_range_item_raises_after_the_pulls_before_it(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        loop = WeakOracle(instance, sigma=0.1, seed=0)
        for bad in (instance.n, -1):
            with pytest.raises(ValueError) as raised:
                weak.pull_many([4, 4, bad, 2])
            with pytest.raises(ValueError) as expected:
                for x in (4, 4, bad, 2):
                    loop.pull(x)
            assert str(raised.value) == str(expected.value)
        assert weak.total_pulls == loop.total_pulls == 4
        np.testing.assert_array_equal(weak.pulls_per_item, loop.pulls_per_item)

    def test_empty_batch(self, instance):
        weak = WeakOracle(instance, sigma=0.1, seed=0, max_pulls=0)
        for items in ([], np.zeros(0, dtype=np.int64)):
            got = weak.pull_many(items)
            assert got.dtype == np.float64 and got.size == 0
        assert weak.total_pulls == 0

    def test_an_overriding_pull_sees_every_item_in_order(self, instance):
        weak = _RecordingWeakOracle(instance, sigma=0.1, seed=3, max_pulls=3)
        plain = WeakOracle(instance, sigma=0.1, seed=3)
        got = weak.pull_many([6, 1, 6])
        assert weak.seen == [6, 1, 6]
        assert got.tobytes() == plain.pull_many([6, 1, 6]).tobytes()
        with pytest.raises(BudgetExceededError):
            weak.pull_many([2, 8])
        assert weak.seen == [6, 1, 6, 2]
        assert weak.total_pulls == 3


def _planned(weak, items):
    """The draws of `items` pulled in order from `weak`'s streams, and their
    stream positions, as a plan computes them; nothing is charged."""
    start, seen, positions = weak.pulls_per_item, {}, []
    for x in items:
        positions.append(start[x] + seen.get(x, 0))
        seen[x] = seen.get(x, 0) + 1
    items, positions = np.array(items, dtype=np.int64), np.array(positions, dtype=np.int64)
    draws = [weak._draws([x], [t], 1)[0] for x, t in zip(items, positions)]
    return items, positions, np.concatenate(draws)


class TestCharge:
    """``_charge``, which charges a plan's pulls by stream position."""

    ITEMS = [5, 5, 0, 19, 5, 0, 7] * 3

    def test_charges_what_pull_many_charges(self, instance):
        weak, loop = (WeakOracle(instance, sigma=0.3, seed=4, clamp=True) for _ in range(2))
        for oracle in (weak, loop):
            oracle.pull_many([5, 0, 0])
        items, positions, draws = _planned(weak, self.ITEMS)
        weak._charge(items, positions, draws)
        assert loop.pull_many(items).tobytes() == draws.tobytes()
        assert weak.total_pulls == loop.total_pulls == 3 + len(self.ITEMS)
        np.testing.assert_array_equal(weak.pulls_per_item, loop.pulls_per_item)
        assert [weak.pull(x) for x in (5, 0, 1)] == [loop.pull(x) for x in (5, 0, 1)]

    def test_at_the_budget_charges_the_pulls_that_fit(self, instance):
        weak, loop = (WeakOracle(instance, sigma=0.1, seed=2, max_pulls=9) for _ in range(2))
        items, positions, draws = _planned(weak, self.ITEMS)
        with pytest.raises(BudgetExceededError) as charged:
            weak._charge(items, positions, draws)
        with pytest.raises(BudgetExceededError) as pulled:
            loop.pull_many(items)
        assert str(charged.value) == str(pulled.value)
        assert weak.total_pulls == loop.total_pulls == 9
        np.testing.assert_array_equal(weak.pulls_per_item, loop.pulls_per_item)

    @pytest.mark.parametrize("shifted", [[0], [5], [0, 5, 7, 19]])
    def test_a_plan_off_the_stream_positions_raises_before_charging(self, instance, shifted):
        weak = WeakOracle(instance, sigma=0.1, seed=0)
        weak.pull_many([5, 7])
        before = weak.pulls_per_item
        items, positions, draws = _planned(weak, self.ITEMS)
        positions[np.isin(items, shifted)] += 1
        with pytest.raises(RuntimeError, match="not where the plan put"):
            weak._charge(items, positions, draws)
        assert weak.total_pulls == 2
        np.testing.assert_array_equal(weak.pulls_per_item, before)

    def test_an_overriding_pull_is_pulled_and_compared(self, instance):
        weak = _RecordingWeakOracle(instance, sigma=0.1, seed=3)
        items, positions, draws = _planned(weak, self.ITEMS)
        weak._charge(items, positions, draws)
        assert weak.seen == self.ITEMS
        # one bit off in the last draw
        items, positions, draws = _planned(weak, self.ITEMS)
        draws[-1] = np.nextafter(draws[-1], 2.0)
        with pytest.raises(RuntimeError, match="did not return the draws"):
            weak._charge(items, positions, draws)


@pytest.mark.parametrize("item", [True, False, np.True_])
def test_boolean_items_are_rejected_on_every_path(instance, item):
    weak, strong = WeakOracle(instance, sigma=0.1, seed=0), StrongOracle(instance)
    accesses = (lambda: weak.pull(item), lambda: weak.pull_many([item]), lambda: strong.query(item))
    for access in accesses:
        with pytest.raises(TypeError):
            access()
    assert weak.total_pulls == 0 and strong.calls == 0


def _unmix64(z: int) -> int:
    """The input whose ``mix64`` is z: splitmix64's finalizer, step by step
    backwards (each xorshift and each odd multiplier is invertible)."""

    def unshift(y: int, s: int) -> int:
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = (z * pow(_hashing._MUL2, -1, 1 << 64)) & _hashing._MASK
    z = unshift(z, 27)
    z = (z * pow(_hashing._MUL1, -1, 1 << 64)) & _hashing._MASK
    z = unshift(z, 30)
    return (z - _hashing._GAMMA) & _hashing._MASK


class TestTopHash:
    """The hash whose top 53 bits are all set once made a uniform of exactly
    1.0 and an infinite draw; it now draws what the next value down draws."""

    T = 5
    TOP = _unmix64(((1 << 53) - 1) << 11) ^ T
    BELOW = _unmix64(((1 << 53) - 2) << 11) ^ T

    def test_the_keys_hash_to_the_top_values(self):
        assert _hashing.mix64(self.TOP ^ self.T) >> 11 == (1 << 53) - 1
        assert _hashing.mix64(self.BELOW ^ self.T) >> 11 == (1 << 53) - 2

    def test_scalar_and_block_paths_agree_and_stay_finite(self):
        keys = np.array([self.TOP, self.BELOW], dtype=np.uint64)
        block = _hashing.gaussian_rows(keys, self.T, 1, 1.0, np.zeros(2))[:, 0]
        scalar = [_hashing.gaussian_scalar(int(key), self.T, 1.0) for key in keys]
        assert block.tolist() == scalar
        # the largest standard normal the grid can give, at u = 1 - 2**-52
        assert scalar == [ndtri(1.0 - 2.0**-52)] * 2 and math.isfinite(scalar[0])

    @pytest.mark.parametrize("clamp", [False, True])
    def test_pull_pull_many_and_the_screen_agree_and_stay_finite(self, clamp):
        weak = WeakOracle(Instance(values=np.array([0.5, 0.25]), k=1), sigma=0.1, clamp=clamp)
        weak._keys = np.array([self.TOP, self.BELOW], dtype=np.uint64)
        scalar = [[weak.pull(x) for _ in range(self.T + 1)] for x in (0, 1)]
        weak.reset()
        batch = weak.pull_many([0] * (self.T + 1) + [1] * (self.T + 1)).reshape(2, -1)
        weak.reset()
        block = weak.pull_all(self.T + 1)
        assert batch.tolist() == block.tolist() == scalar
        assert np.isfinite(block).all()
        expected = 1.0 if clamp else 0.5 + 0.1 * ndtri(1.0 - 2.0**-52)
        assert block[0, self.T] == expected
