"""Tests for instances, order statistics, and interval-state operations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topkcert.core import (
    Instance,
    IntervalState,
    _stable_argsort,
    ambiguous_band,
    ambiguous_set,
    coverage_event_holds,
    epsilon_max,
    kth_largest,
    near_tie_mass,
    true_top_k,
)


class TestKthLargest:
    def test_max_of_list(self):
        assert kth_largest([0.9, 0.5, 0.1], 1) == 0.9

    def test_all_equal(self):
        assert kth_largest([0.3, 0.3, 0.3, 0.3], 2) == 0.3

    def test_second_largest(self):
        values = [0.9, 0.7, 0.3, 0.2]
        # independent oracle: sort descending and index
        assert kth_largest(values, 2) == sorted(values, reverse=True)[1] == 0.7

    def test_matches_sort_oracle_on_random_lists(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            values = rng.random(n)
            k = int(rng.integers(1, n + 1))
            assert kth_largest(values, k) == sorted(values, reverse=True)[k - 1]

    def test_out_of_range_k(self):
        with pytest.raises(ValueError):
            kth_largest([0.5, 0.6], 3)
        with pytest.raises(ValueError):
            kth_largest([0.5], 0)
        with pytest.raises(ValueError):
            kth_largest([], 1)


# a small grid, so that keys tie, with both zeros, both infinities and NaN
_FLOAT_KEYS = st.sampled_from([-np.inf, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, np.inf, np.nan])


class TestStableArgsort:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(_FLOAT_KEYS, max_size=300))
    def test_float_keys_match_the_stable_sort(self, keys):
        keys = np.array(keys, dtype=np.float64)
        order = _stable_argsort(keys)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == expected.dtype
        np.testing.assert_array_equal(order, expected)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(-3, 3), max_size=300),
        st.sampled_from([1, 1 << 20, 1 << 61]),
    )
    def test_int_keys_match_the_stable_sort(self, keys, scale):
        # the largest scale overflows the tie-free key and takes the stable sort
        keys = np.array(keys, dtype=np.int64) * scale
        order = _stable_argsort(keys)
        expected = np.argsort(keys, kind="stable")
        assert order.dtype == expected.dtype
        np.testing.assert_array_equal(order, expected)

    def test_int64_extremes(self):
        info = np.iinfo(np.int64)
        keys = np.array([info.max, info.min, 0, info.max, info.min])
        np.testing.assert_array_equal(_stable_argsort(keys), [1, 4, 2, 0, 3])

    def test_other_dtypes_match_the_stable_sort(self):
        rng = np.random.default_rng(4)
        for dtype in (np.int8, np.uint8, np.uint64, np.float32, np.bool_):
            keys = rng.integers(0, 3, 200).astype(dtype)
            np.testing.assert_array_equal(
                _stable_argsort(keys), np.argsort(keys, kind="stable")
            )


class TestTrueTopK:
    def test_single_max(self):
        inst = Instance(values=np.array([0.9, 0.5, 0.1]), k=1)
        assert set(true_top_k(inst)) == {0}

    def test_index_tie_break(self):
        inst = Instance(values=np.array([0.5, 0.5, 0.1]), k=1)
        assert set(true_top_k(inst)) == {0}

    def test_full_sort_case(self):
        inst = Instance(values=np.array([0.2, 0.8, 0.6, 0.4]), k=2)
        assert set(true_top_k(inst)) == {1, 2}

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            values = np.round(rng.random(n), 2)  # force ties
            k = int(rng.integers(1, n + 1))
            inst = Instance(values=values, k=k)
            expected = sorted(range(n), key=lambda i: (-values[i], i))[:k]
            assert list(true_top_k(inst)) == sorted(expected)

    def test_threshold_and_gap(self):
        inst = Instance(values=np.array([0.9, 0.7, 0.3]), k=2)
        assert inst.threshold == 0.7
        assert inst.gap == pytest.approx(0.4)
        assert Instance(values=np.array([0.9, 0.7]), k=2).gap == np.inf

    def test_invalid_instances(self):
        with pytest.raises(ValueError):
            Instance(values=np.array([0.5, 1.2]), k=1)
        with pytest.raises(ValueError):
            Instance(values=np.array([0.5, 0.4]), k=3)
        with pytest.raises(ValueError):
            Instance(values=np.array([]), k=1)


class TestNearTieMass:
    def test_eta_zero_counts_threshold_item(self):
        inst = Instance(values=np.array([0.9, 0.5, 0.1]), k=1)
        assert near_tie_mass(inst, 0.0) == 1

    def test_enumeration_oracle(self):
        inst = Instance(values=np.array([0.9, 0.5, 0.1]), k=1)
        # threshold 0.9; |0.5 - 0.9| <= 0.5 and |0.1 - 0.9| > 0.5
        assert near_tie_mass(inst, 0.5) == sum(abs(v - 0.9) <= 0.5 for v in [0.9, 0.5, 0.1]) == 2

    def test_eta_one_counts_everything(self):
        rng = np.random.default_rng(2)
        inst = Instance(values=rng.random(50), k=7)
        assert near_tie_mass(inst, 1.0) == 50

    def test_monotone_in_eta(self):
        rng = np.random.default_rng(3)
        inst = Instance(values=rng.random(80), k=10)
        masses = [near_tie_mass(inst, eta) for eta in np.linspace(0, 1, 21)]
        assert masses == sorted(masses)
        assert masses[0] >= 1

    def test_negative_eta_rejected(self):
        inst = Instance(values=np.array([0.5]), k=1)
        with pytest.raises(ValueError):
            near_tie_mass(inst, -0.1)


def _state(bounds):
    lower = np.array([b[0] for b in bounds], dtype=float)
    upper = np.array([b[1] for b in bounds], dtype=float)
    return IntervalState.from_bounds(lower, upper)


class TestAmbiguousSet:
    def test_separated_intervals(self):
        state = _state([(0.85, 0.95), (0.65, 0.75), (0.25, 0.35)])
        assert list(ambiguous_set(state, 1)) == [0]

    def test_identical_intervals_all_ambiguous(self):
        for k in (1, 2, 4):
            state = _state([(0.4, 0.6)] * 4)
            assert list(ambiguous_set(state, k)) == [0, 1, 2, 3]

    def test_overlapping_pair(self):
        # U_(1) = 0.9, L_(1) = 0.8; item 1 has U = 0.85 >= 0.8 and L = 0.55 <= 0.9
        state = _state([(0.8, 0.9), (0.55, 0.85), (0.5, 0.6)])
        assert list(ambiguous_set(state, 1)) == [0, 1]

    def test_contains_boundary_attainers(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            mid = rng.random(n)
            radius = rng.random(n) * 0.2
            state = IntervalState.from_bounds(
                np.clip(mid - radius, 0, 1), np.clip(mid + radius, 0, 1)
            )
            k = int(rng.integers(1, n + 1))
            amb = set(ambiguous_set(state, k))
            assert amb, "ambiguous set must never be empty"
            u_k = kth_largest(state.upper, k)
            l_k = kth_largest(state.lower, k)
            assert set(np.flatnonzero(state.upper == u_k)) <= amb
            assert set(np.flatnonzero(state.lower == l_k)) <= amb


class TestEpsilonMax:
    def test_uniform_radii(self):
        state = _state([(0.4, 0.5), (0.1, 0.2), (0.0, 0.1)])
        assert epsilon_max(state) == pytest.approx(0.05)

    def test_max_over_items(self):
        state = _state([(0.5 - 0.02, 0.5 + 0.02), (0.5 - 0.07, 0.5 + 0.07), (0.5 - 0.01, 0.5 + 0.01)])
        assert epsilon_max(state) == pytest.approx(0.07)

    def test_restriction(self):
        state = _state([(0.5 - 0.02, 0.5 + 0.02), (0.5 - 0.07, 0.5 + 0.07), (0.5 - 0.01, 0.5 + 0.01)])
        assert epsilon_max(state, restrict_to=[0, 2]) == pytest.approx(0.02)

    def test_empty_restriction_rejected(self):
        state = _state([(0.4, 0.6)])
        with pytest.raises(ValueError):
            epsilon_max(state, restrict_to=[])


class TestCoverageAndLemma:
    def test_zero_radius_truth_covers(self):
        values = np.array([0.2, 0.6, 0.9])
        inst = Instance(values=values, k=1)
        state = IntervalState.from_bounds(values, values)
        assert coverage_event_holds(inst, state)
        assert ambiguous_set(state, inst.k).size <= near_tie_mass(inst, 4 * epsilon_max(state))

    def test_shifted_interval_breaks_coverage(self):
        inst = Instance(values=np.array([0.2, 0.6, 0.9]), k=1)
        state = _state([(0.3, 0.4), (0.5, 0.7), (0.85, 0.95)])
        assert not coverage_event_holds(inst, state)

    def test_lemma_on_covered_states(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 60))
            values = rng.random(n)
            radius = rng.random(n) * 0.3
            inst = Instance(values=values, k=int(rng.integers(1, n + 1)))
            state = IntervalState.from_bounds(
                np.clip(values - radius, 0, 1), np.clip(values + radius, 0, 1)
            )
            assert coverage_event_holds(inst, state)
            # Lemma 1: |A| <= m(4 eps_max) whenever the coverage event holds
            assert ambiguous_set(state, inst.k).size <= near_tie_mass(inst, 4 * epsilon_max(state))


def _reveal_point(lower, upper, x, value):
    """The exact reveal of `value` at item x, applied in place to writable
    bounds: the interval meets [value, value], an empty meet clamps to the
    nearer old bound.  The scalar reference for ``IntervalState.revealed``;
    returns whether the reveal conflicts."""
    old_lo, old_hi = lower[x], upper[x]
    lo = old_lo if old_lo >= value else value
    hi = old_hi if old_hi <= value else value
    conflict = lo > hi
    if conflict:
        lo = hi = old_hi if value > old_hi else old_lo
    if not (old_lo <= lo <= hi <= old_hi):
        raise ValueError(f"non-monotone update of item {x}")
    lower[x], upper[x] = lo, hi
    return bool(conflict)


def _assert_read_only(state):
    for name in ("lower", "upper", "pulls", "means"):
        array = getattr(state, name)
        if array is not None:
            with pytest.raises(ValueError):
                array[0] = array[0]
    for name in ("lower", "conflicts", "bands"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(state, name, getattr(state, name))


class TestIntervalState:
    def test_disjoint_clamps_and_flags(self):
        state = _state([(0.2, 0.4)])
        above = state.revealed([0], [0.6])
        assert (above.lower[0], above.upper[0]) == (0.4, 0.4)
        assert above.conflicts == 1
        below = above.revealed([0], [0.1])
        assert (below.lower[0], below.upper[0]) == (0.4, 0.4)
        assert below.conflicts == 2
        assert (state.lower[0], state.upper[0], state.conflicts) == (0.2, 0.4, 0)

    def test_monotone_under_random_updates(self):
        rng = np.random.default_rng(6)
        state = _state(np.sort(rng.random((30, 2)), axis=1).tolist())
        for _ in range(40):
            items = rng.choice(30, size=int(rng.integers(0, 8)), replace=False)
            new = state.revealed(items, rng.random(items.size))
            assert (new.lower >= state.lower).all() and (new.upper <= state.upper).all()
            assert (new.lower[items] == new.upper[items]).all()
            assert new.conflicts >= state.conflicts
            state = new

    def test_revealed_with_nan_raises_before_building_a_state(self, monkeypatch):
        state = _state([(0.2, 0.8), (0.1, 0.3), (0.4, 0.6)])
        built = []
        monkeypatch.setattr(IntervalState, "__post_init__", lambda self: built.append(self))
        with pytest.raises(ValueError, match="non-monotone"):
            state.revealed([0, 2, 1], [0.5, float("nan"), 0.9])
        assert built == []
        assert (state.lower[0], state.upper[0]) == (0.2, 0.8)
        assert (state.lower[1], state.upper[1]) == (0.1, 0.3)
        assert state.conflicts == 0 and not (state.lower == state.upper).any()

    def test_read_only_state_holds_its_arrays_and_shares_its_bands(self):
        lower, upper = np.array([0.1, 0.5, 0.2, 0.7]), np.array([0.4, 0.5, 0.6, 0.9])
        pulls, means = np.broadcast_to(np.int64(3), 4), np.array([0.2, 0.5, 0.4, 0.8])
        state = IntervalState.read_only(lower, upper, pulls, means)
        assert state.lower is lower and state.means is means
        assert list(state.lower == state.upper) == [False, True, False, False]
        _assert_read_only(state)
        band = ambiguous_band(state, 2)
        assert ambiguous_band(state, 2) is band and state.bands == {2: band}
        assert list(band[0]) == [1, 2] and band[1] == 0.6
        assert not band[0].flags.writeable
        assert ambiguous_set(state, 2) is band[0]
        final = state.revealed([2], [0.3])
        assert final.bands == {}
        assert list(ambiguous_set(final, 2)) == [1] and list(ambiguous_set(state, 2)) == [1, 2]

    def test_read_only_state_is_checked(self):
        with pytest.raises(ValueError, match="empty interval at item 1"):
            IntervalState.read_only(np.array([0.1, 0.6]), np.array([0.2, 0.5]), np.zeros(2), None)
        with pytest.raises(ValueError, match="means has shape"):
            IntervalState.read_only(np.zeros(2), np.ones(2), np.zeros(2), np.zeros(3))

    def test_revealed_shares_pulls_and_means_and_copies_the_bounds(self):
        lower = np.array([0.1, 0.2])
        state = IntervalState.from_bounds(lower, [0.3, 0.4], pulls=[1, 2], means=[0.2, 0.3])
        assert state.lower is not lower and lower.flags.writeable
        final = state.revealed([1], [0.25])
        assert final.pulls is state.pulls and final.means is state.means
        assert final.lower is not state.lower and final.upper is not state.upper
        assert list(state.lower) == [0.1, 0.2] and list(final.lower) == [0.1, 0.25]

    def test_every_construction_leaves_read_only_arrays(self):
        state = IntervalState.from_bounds([0.1, 0.2], [0.3, 0.4], means=[0.2, 0.3])
        built = (
            state,
            IntervalState.full_range(3),
            IntervalState.read_only(np.zeros(2), np.ones(2), np.zeros(2), None),
            IntervalState(np.zeros(2), np.ones(2), np.zeros(2, dtype=np.int64)),
            dataclasses.replace(state, conflicts=4),
            state.revealed([0], [0.5]),
        )
        for each in built:
            _assert_read_only(each)

    def test_from_bounds_rejects_inverted(self):
        with pytest.raises(ValueError):
            IntervalState.from_bounds(np.array([0.5]), np.array([0.4]))


# quantised levels make ties, exact 0 and 1, and reveals outside the interval common
_LEVELS = st.one_of(st.integers(0, 8).map(lambda i: i / 8), st.floats(0.0, 1.0), st.just(-0.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_revealed_matches_the_scalar_point_reveal_rule(data):
    n = data.draw(st.integers(1, 20))
    bounds = data.draw(st.lists(st.tuples(_LEVELS, _LEVELS), min_size=n, max_size=n))
    state = _state([(min(a, b), max(a, b)) for a, b in bounds])
    start = data.draw(st.integers(0, 3))
    state = dataclasses.replace(state, conflicts=start)
    k = data.draw(st.integers(1, n))
    band = ambiguous_band(state, k)
    items = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    values = data.draw(st.lists(_LEVELS, min_size=len(items), max_size=len(items)))
    before = [getattr(state, name).tobytes() for name in ("lower", "upper", "pulls")]
    lower, upper = state.lower.copy(), state.upper.copy()
    conflicts = start
    for x, value in zip(items, values):
        conflicts += _reveal_point(lower, upper, x, value)
    final = state.revealed(np.array(items, dtype=np.int64), np.array(values, dtype=float))
    assert final.lower.tobytes() == lower.tobytes() and final.upper.tobytes() == upper.tobytes()
    assert (final.lower == final.upper).tobytes() == (lower == upper).tobytes()
    assert final.conflicts == conflicts
    assert final.pulls is state.pulls and final.bands == {}
    # the source state is untouched
    assert [getattr(state, name).tobytes() for name in ("lower", "upper", "pulls")] == before
    assert state.conflicts == start
    assert list(state.bands) == [k] and state.bands[k] is band


def _tied_arrays():
    """Arrays long enough for kth_largest's sampled cut, named by their shape."""
    rng = np.random.default_rng(7)
    n = 3 * 2**14 + 5
    zeros = rng.random(n)
    zeros[rng.random(n) < 0.75] = 0.0
    ones = rng.random(n)
    ones[rng.random(n) < 0.75] = 1.0
    signed = rng.random(n)
    tied = rng.random(n) < 0.75
    signed[tied] = np.where(rng.random(int(tied.sum())) < 0.5, 0.0, -0.0)
    negative = zeros.copy()
    negative[negative == 0.0] = -0.0
    nans = rng.random(n)
    at = rng.choice(n, 40, replace=False)
    nans[at] = np.nan
    # NaNs of both signs: which one np.partition returns is its own choice
    nans[at[::2]] = -np.nan
    # a period that divides the sampling stride shows the sample one level only
    periodic = np.tile(np.linspace(0.0, 1.0, 48), n // 48 + 1)[:n]
    return {"zeros": zeros, "ones": ones, "signed_zeros": signed, "negative_zeros": negative,
            "nans": nans, "periodic": periodic, "ascending": np.sort(zeros)}


@pytest.mark.parametrize("name, values", sorted(_tied_arrays().items()))
def test_kth_largest_matches_sorting_on_tied_arrays(name, values):
    n = values.size
    # NaN first, as the largest; Python's sort cannot order NaN itself
    ranked = sorted(values.tolist(), key=lambda v: (v != v, v), reverse=True)
    for k in (1, 2, 39, 40, 41, 700, n // 4, n // 4 + 1, n // 2, 3 * n // 4, n - 700, n - 1, n):
        got = kth_largest(values, k)
        expected = ranked[k - 1]
        assert got == expected or (got != got and expected != expected), (name, k)
        # the bits, sign of zero and NaN included, are np.partition's
        assert np.float64(got).tobytes() == np.partition(values, n - k)[n - k].tobytes(), (name, k)


def test_from_bounds_rejects_nan_bounds():
    for lower, upper in (([0.1, np.nan], [0.2, 0.3]), ([0.1, 0.2], [np.nan, 0.3])):
        with pytest.raises(ValueError, match="NaN bound at item"):
            IntervalState.from_bounds(np.array(lower), np.array(upper))
    with pytest.raises(ValueError, match="empty interval at item 1"):
        IntervalState.from_bounds(np.array([0.1, 0.5]), np.array([0.2, 0.4]))
    # NaN point estimates stay allowed
    state = IntervalState.from_bounds([0.1], [0.2], means=[np.nan])
    assert np.isnan(state.means[0])


@pytest.mark.parametrize("field, length", [("pulls", 1), ("pulls", 3), ("means", 1), ("means", 3)])
def test_from_bounds_rejects_pulls_or_means_of_another_length(field, length):
    with pytest.raises(ValueError, match=rf"{field} has shape \({length},\), the bounds \(2,\)"):
        IntervalState.from_bounds([0.0, 0.0], [1.0, 1.0], **{field: np.zeros(length)})
