"""Ground-truth instances, order statistics, and interval-state vocabulary.

An :class:`Instance` is the hidden truth (item values and the target size k);
an :class:`IntervalState` is everything an algorithm is allowed to see: one
confidence interval per item and pull counts, as an immutable value.  The module
also provides the near-tie mass and ambiguous-set computations that drive
every strong-call bound, plus ground-truth diagnostics (coverage checks) that
only test and harness code may call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .validation import check_int, check_k, check_non_negative, check_values


@dataclass(frozen=True)
class Instance:
    """Hidden ground truth: item values in [0, 1] and the top-k target size.

    Ties everywhere are broken by ascending item index, so the top-k set,
    the threshold (k-th largest value) and the gap are all deterministic.
    ``near_ties`` keeps m(eta) per eta; see :func:`near_tie_mass`.
    """

    values: np.ndarray
    k: int
    near_ties: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = check_values(self.values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "k", check_k(self.k, values.size))

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def threshold(self) -> float:
        """The k-th largest value; ``values`` is read-only, so computed once."""
        return kth_largest(self.values, self.k)

    @property
    def gap(self) -> float:
        """v_(k) - v_(k+1); +inf when k == n."""
        if self.k == self.n:
            return math.inf
        return self.threshold - kth_largest(self.values, self.k + 1)


@dataclass(frozen=True)
class IntervalState:
    """Per-item confidence intervals with pull counts; an immutable value.

    The constructor checks its arrays (see ``_check_state``) and makes them
    read-only; arrays of float64 bounds and means and int64 pulls are kept
    themselves, so states may share them, and ``from_bounds`` copies.
    ``conflicts`` counts the weak phase's updates that missed their interval,
    which can only occur when some interval failed to cover its true value.
    ``bands`` keeps each k's ambiguous band; see :func:`ambiguous_band`.
    """

    lower: np.ndarray
    upper: np.ndarray
    pulls: np.ndarray
    means: Optional[np.ndarray] = None
    conflicts: int = 0
    bands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name), dtype=dtype)
                  for name, dtype in _DTYPES.items() if getattr(self, name) is not None}
        for name, array in arrays.items():
            object.__setattr__(self, name, array)
        _check_state(self)
        for array in arrays.values():
            array.flags.writeable = False

    @classmethod
    def from_bounds(cls, lower, upper, pulls=None, means=None) -> "IntervalState":
        """A state of copies of the arrays; pull counts default to zeros."""
        pulls = np.zeros(np.shape(lower), dtype=np.int64) if pulls is None else pulls
        return cls(*(None if a is None else np.array(a) for a in (lower, upper, pulls, means)))

    @classmethod
    def full_range(cls, n: int) -> "IntervalState":
        """The no-information state: every interval is [0, 1]."""
        n = check_int(n, "n", minimum=1)
        return cls.from_bounds(np.zeros(n), np.ones(n))

    @property
    def n(self) -> int:
        return int(self.lower.size)

    def radius(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    @cached_property
    def _largest_radius(self) -> float:
        """``epsilon_max(self)``; the bounds never change, so computed once."""
        return float(self.radius().max())

    def point_estimates(self) -> np.ndarray:
        """Sample means when available, interval midpoints otherwise."""
        if self.means is not None:
            return self.means
        return 0.5 * (self.lower + self.upper)


_DTYPES = {"lower": np.float64, "upper": np.float64, "pulls": np.int64, "means": np.float64}


def _check_state(state: IntervalState) -> None:
    """The constructor's rules: bounds of unequal shape, an empty interval, a
    NaN bound, and pulls or means of another shape raise ``ValueError``."""
    lower, upper = state.lower, state.upper
    if lower.shape != upper.shape or lower.ndim != 1:
        raise ValueError("lower and upper must be 1-D arrays of equal length")
    # false where an interval is empty, and where a bound is NaN, which
    # would drop the item out of every ambiguous-set comparison
    valid = lower <= upper
    if not valid.all():
        bad = int(np.argmin(valid))
        what = "NaN bound" if np.isnan([lower[bad], upper[bad]]).any() else "empty interval"
        raise ValueError(f"{what} at item {bad}: [{lower[bad]}, {upper[bad]}]")
    for name in ("pulls", "means"):
        array = getattr(state, name)
        if array is not None and array.shape != lower.shape:
            raise ValueError(f"{name} has shape {array.shape}, the bounds {lower.shape}")


# kth_largest cuts arrays at least this long, for k up to a 64th of their
# length (certify._head_pool for counts up to an 8th), at a guess taken from
# a strided sample of _SAMPLE to 2 * _SAMPLE entries
_SAMPLE_FROM = 1 << 14
_SAMPLE = 1024


def kth_largest(values: Sequence[float] | np.ndarray, k: int) -> float:
    """The k-th largest element, counting multiplicity.

    Returns the same float as ``np.partition`` on the whole array, NaN
    counting as larger than every number.  For a long array and a small k,
    the array is first cut at a guess that a strided sample places just
    below the answer; the answer is then the k-th largest entry above the
    guess, or the guess itself, so a tied mass below the guess (such as
    lower bounds clipped to 0.0) is never partitioned.
    """
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    if n == 0:
        raise ValueError("values must be non-empty")
    k = check_k(k, n)
    if n >= _SAMPLE_FROM and k <= n // 64:
        value = _kth_largest_by_cut(arr, k)
        if value is not None:
            return value
    return float(np.partition(arr, n - k)[n - k])


def _kth_largest_by_cut(arr: np.ndarray, k: int) -> float | None:
    """``kth_largest`` from the entries above a sampled guess, or None.

    None stands for a full partition: where the guess lies above the answer,
    and for a NaN answer or a zero answer where both signs of zero occur,
    since only the full partition fixes which of their bit patterns it
    returns.
    """
    n = arr.size
    sample = np.sort(arr[:: n // _SAMPLE])
    s = sample.size
    guess = sample[s - _guess_rank(n, s, k)]
    # NaN counts as larger than every number, as in np.partition
    kept = arr[~(arr <= guess)]
    # the guess's ties would sit just below the kept entries
    at = kept.size - k
    tied = -np.count_nonzero(arr == guess) <= at < 0
    if guess != guess or not (tied or at >= 0):
        return None
    value = float(guess if tied else np.partition(kept, at)[at])
    if value != value:
        return None
    if value == 0.0:
        signs = np.signbit(arr[arr == 0.0])
        if signs.any() and not signs.all():
            return None
    return value


def _guess_rank(n: int, s: int, count: int) -> int:
    """The rank, from the top of a sorted strided sample of `s` of `n`
    entries, of a guess that `count` of the `n` entries very likely reach and
    not many more do: about four standard deviations of the sample count
    past `count`'s share of the sample."""
    expect = count * s / n
    return min(s, int(expect + 4.0 * math.sqrt(expect)) + 8)


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of a 1-D array, bit for bit: the
    positions by ascending key, equal keys by ascending position.  Every
    order in the package that breaks ties by item index is built here.

    numpy's stable sort runs several times slower than its unstable one, so
    the order comes from unstable sorts of tie-free keys:

    - integer keys: one sort of ``(key - min) << bits | position``, where
      ``bits`` holds any position; the stable sort where that overflows int64;
    - float keys: one sort, then each run of equal keys (NaNs equal each
      other and sort last, -0.0 equals 0.0) put in position order by the same
      tie-free sort of ``run << bits | position``; when more than half tie at
      the smallest key, as clamped bounds do, only the others are sorted.
      Other dtypes take the stable sort.
    """
    keys = np.asarray(keys)
    size = keys.size
    bits = (size - 1).bit_length() if size else 0
    if keys.dtype.kind == "i" and size:
        low = int(keys.min())
        if (int(keys.max()) - low + 1) << bits <= 1 << 63:
            return _by_key_then_position(np.subtract(keys, low, dtype=np.int64), np.arange(size), bits)
    if keys.dtype.kind != "f" or not 0 < size <= 1 << 31:
        return np.argsort(keys, kind="stable")
    least = keys == keys.min()
    if 2 * np.count_nonzero(least) > size:
        # most tie at the smallest key (with a NaN, none do): those come
        # first in position order, and only the rest is sorted
        rest = np.flatnonzero(~least)
        return np.concatenate((np.flatnonzero(least), rest[_stable_argsort(keys[rest])]))
    del least
    order = np.argsort(keys)
    ranked = keys[order]
    tied = ranked[1:] == ranked[:-1]
    if ranked[-1] != ranked[-1]:
        # NaNs sort last, so a NaN short of the end ties with the next entry
        tied |= np.isnan(ranked[:-1])
    del ranked
    if tied.any():
        member = np.zeros(size, dtype=bool)
        member[1:] = tied
        member[:-1] |= tied
        at = np.flatnonzero(member)
        # a run's number counts the runs that start up to it: its entries
        # are consecutive in `at`, and its first is not tied to the one before
        member[1:] = ~tied
        del tied
        runs = np.cumsum(member[at])
        # run numbers are at most size <= 2**31, so run << bits fits int64
        order[at] = _by_key_then_position(runs, order[at], bits)
    return order


def _by_key_then_position(keys: np.ndarray, positions: np.ndarray, bits: int) -> np.ndarray:
    """`positions` (below ``1 << bits``) by ascending (key, position), for
    non-negative int64 keys with ``(max key + 1) << bits`` within int64;
    sorts in the memory of `keys`, which it returns."""
    keys <<= bits
    keys |= positions
    keys.sort()
    keys &= (1 << bits) - 1
    return keys


def true_top_k(instance: Instance) -> np.ndarray:
    """Indices of the k largest values, ascending-index tie-break; sorted.

    O(n): every value above the threshold, then the lowest-index ties at it.
    """
    values = instance.values
    threshold = instance.threshold
    chosen = values > threshold
    ties = np.flatnonzero(values == threshold)
    chosen[ties[: instance.k - int(np.count_nonzero(chosen))]] = True
    return np.flatnonzero(chosen)


def near_tie_mass(instance: Instance, eta: float) -> int:
    """m(eta): how many items sit within eta of the threshold (inclusive).

    The values never change, so each eta's count is kept in
    ``instance.near_ties``: the certifiers of a replicate that screen one
    block report one eps_max, and their metrics count it once.
    """
    eta = check_non_negative(eta, "eta")
    mass = instance.near_ties.get(eta)
    if mass is None:
        mass = int(np.count_nonzero(np.abs(instance.values - instance.threshold) <= eta))
        instance.near_ties[eta] = mass
    return mass


def ambiguous_set(state: IntervalState, k: int) -> np.ndarray:
    """Items whose intervals overlap the k-th boundary band; sorted indices.

    A = {x : L(x) <= U_(k) and U(x) >= L_(k)} where L_(k) and U_(k) are the
    k-th largest lower and upper bounds.  A is never empty: any item attaining
    U_(k) belongs to it.
    """
    return ambiguous_band(state, k)[0]


def ambiguous_band(state: IntervalState, k: int) -> tuple[np.ndarray, float, np.ndarray]:
    """``ambiguous_set(state, k)``, U_(k), the k-th largest upper bound, and
    the clear-in items, whose lower bound lies above U_(k); sorted indices.

    Nothing changes a state's bounds, so all three are kept per k in
    ``state.bands``, and the arrays are returned read-only.
    """
    k = check_k(k, state.n)
    band = state.bands.get(k)
    if band is None:
        u_k = kth_largest(state.upper, k)
        l_k = kth_largest(state.lower, k)
        amb = np.flatnonzero((state.lower <= u_k) & (state.upper >= l_k))
        clear_in = np.flatnonzero(state.lower > u_k)
        amb.flags.writeable = clear_in.flags.writeable = False
        band = state.bands[k] = amb, u_k, clear_in
    return band


def epsilon_max(state: IntervalState, restrict_to=None) -> float:
    """Largest confidence radius, optionally over a subset of items; over
    all items it is kept on the state, which every certifier screening one
    block of pulls shares."""
    if restrict_to is None:
        return state._largest_radius
    idx = np.asarray(restrict_to, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("restrict_to must be non-empty")
    return float((0.5 * (state.upper[idx] - state.lower[idx])).max())


def coverage_event_holds(instance: Instance, state: IntervalState) -> bool:
    """Ground-truth diagnostic: does every interval contain its true value?

    Consumes the hidden values; only tests and the harness may call it.
    """
    v = instance.values
    return bool(np.all((state.lower <= v) & (v <= state.upper)))

