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
    """

    values: np.ndarray
    k: int

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

    Every state's arrays are read-only, so states may share them: a reveal
    returns a new state (see :meth:`revealed`), whose bounds only ever
    shrink and whose pull counts and means are the old state's own.
    ``conflicts`` counts reveals outside their interval, which can only
    occur when some interval failed to cover its true value.  ``bands``
    keeps each k's ambiguous set and u_k; see :func:`ambiguous_band`.
    """

    lower: np.ndarray
    upper: np.ndarray
    pulls: np.ndarray
    means: Optional[np.ndarray] = None
    conflicts: int = 0
    bands: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for array in (self.lower, self.upper, self.pulls, self.means):
            if array is not None:
                array.flags.writeable = False

    @classmethod
    def from_bounds(cls, lower, upper, pulls=None, means=None) -> "IntervalState":
        """A state holding copies of the bounds, pull counts (zeros when None)
        and means, checked as ``read_only`` checks its arrays."""
        lower = np.array(lower, dtype=np.float64)
        if pulls is None:
            pulls = np.zeros(lower.shape, dtype=np.int64)
        return cls.read_only(
            lower,
            np.array(upper, dtype=np.float64),
            np.array(pulls, dtype=np.int64),
            None if means is None else np.array(means, dtype=np.float64),
        )

    @classmethod
    def read_only(cls, lower, upper, pulls, means, conflicts=0) -> "IntervalState":
        """A state of the given arrays themselves, made read-only.  Bounds of
        unequal shape, an empty interval, a NaN bound, and pulls or means of
        another shape raise."""
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        pulls = np.asarray(pulls, dtype=np.int64)
        means = None if means is None else np.asarray(means, dtype=np.float64)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        # false where an interval is empty, and where a bound is NaN, which
        # would drop the item out of every ambiguous-set comparison
        valid = lower <= upper
        if not valid.all():
            bad = int(np.argmin(valid))
            what = "NaN bound" if np.isnan([lower[bad], upper[bad]]).any() else "empty interval"
            raise ValueError(f"{what} at item {bad}: [{lower[bad]}, {upper[bad]}]")
        for name, array in (("pulls", pulls), ("means", means)):
            if array is not None and array.shape != lower.shape:
                raise ValueError(f"{name} has shape {array.shape}, the bounds {lower.shape}")
        return cls(lower, upper, pulls, means, conflicts)

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

    def point_estimates(self) -> np.ndarray:
        """Sample means when available, interval midpoints otherwise."""
        if self.means is not None:
            return self.means
        return 0.5 * (self.lower + self.upper)

    def revealed(self, items, values) -> "IntervalState":
        """This state after the exact reveal of ``values[i]`` at ``items[i]``,
        for distinct items.

        A value inside its item's interval collapses the interval onto it; a
        value outside collapses the interval onto the nearer bound and counts
        a conflict.  A NaN value raises before any state is built.  The new
        state shares this one's pull counts and means.
        """
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        # the bounds are copied before the temporaries are built: at n = 1e6
        # the other order reads a few MB more peak RSS
        lower = self.lower.copy()
        upper = self.upper.copy()
        old_lo = lower[items]
        old_hi = upper[items]
        # the interval [old_lo, old_hi] intersected with [value, value]
        new_lo = np.where(old_lo >= values, old_lo, values)
        new_hi = np.where(old_hi <= values, old_hi, values)
        conflict = new_lo > new_hi
        clamped = np.where(values > old_hi, old_hi, old_lo)
        new_lo = np.where(conflict, clamped, new_lo)
        new_hi = np.where(conflict, clamped, new_hi)
        bad = ~((old_lo <= new_lo) & (new_lo <= new_hi) & (new_hi <= old_hi))
        if bad.any():
            at = int(np.argmax(bad))
            raise ValueError(
                f"non-monotone update of item {items[at]}: [{old_lo[at]}, {old_hi[at]}] "
                f"-> [{new_lo[at]}, {new_hi[at]}]"
            )
        lower[items] = new_lo
        upper[items] = new_hi
        conflicts = self.conflicts + int(np.count_nonzero(conflict))
        return IntervalState(lower, upper, self.pulls, self.means, conflicts)


# kth_largest cuts arrays at least this long, for k up to a 64th of their
# length, at a guess taken from a strided sample of _SAMPLE to 2 * _SAMPLE
# entries
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
    # the guess sits about four standard deviations of the sample count
    # below the answer
    expect = k * s / n
    rank = min(s, int(expect + 4.0 * math.sqrt(expect)) + 8)
    guess = sample[s - rank]
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
      tie-free sort of ``run << bits | position``.  Other dtypes take the
      stable sort.
    """
    keys = np.asarray(keys)
    size = keys.size
    bits = (size - 1).bit_length() if size else 0
    if keys.dtype.kind == "i" and size:
        low = int(keys.min())
        if (int(keys.max()) - low + 1) << bits <= 1 << 63:
            return _by_key_then_position(keys.astype(np.int64) - low, np.arange(size), bits)
    if keys.dtype.kind != "f" or not 0 < size <= 1 << 31:
        return np.argsort(keys, kind="stable")
    order = np.argsort(keys)
    ranked = keys[order]
    tied = ranked[1:] == ranked[:-1]
    if ranked[-1] != ranked[-1]:
        # NaNs sort last, so a NaN short of the end ties with the next entry
        tied |= np.isnan(ranked[:-1])
    if tied.any():
        member = np.zeros(size, dtype=bool)
        member[1:] = tied
        member[:-1] |= tied
        at = np.flatnonzero(member)
        # run numbers are at most size <= 2**31, so run << bits fits int64
        runs = np.cumsum(np.concatenate(([True], ~tied)))[at]
        order[at] = _by_key_then_position(runs, order[at], bits)
    return order


def _by_key_then_position(keys: np.ndarray, positions: np.ndarray, bits: int) -> np.ndarray:
    """`positions` (below ``1 << bits``) by ascending (key, position), for
    non-negative int64 keys with ``(max key + 1) << bits`` within int64."""
    return np.sort((keys << bits) | positions) & ((1 << bits) - 1)


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
    """m(eta): how many items sit within eta of the threshold (inclusive)."""
    eta = check_non_negative(eta, "eta")
    return int(np.count_nonzero(np.abs(instance.values - instance.threshold) <= eta))


def ambiguous_set(state: IntervalState, k: int) -> np.ndarray:
    """Items whose intervals overlap the k-th boundary band; sorted indices.

    A = {x : L(x) <= U_(k) and U(x) >= L_(k)} where L_(k) and U_(k) are the
    k-th largest lower and upper bounds.  A is never empty: any item attaining
    U_(k) belongs to it.
    """
    return ambiguous_band(state, k)[0]


def ambiguous_band(state: IntervalState, k: int) -> tuple[np.ndarray, float]:
    """``ambiguous_set(state, k)`` and U_(k), the k-th largest upper bound.

    Nothing changes a state's bounds, so both are kept per k in
    ``state.bands``, and the set is returned read-only.
    """
    k = check_k(k, state.n)
    band = state.bands.get(k)
    if band is None:
        u_k = kth_largest(state.upper, k)
        l_k = kth_largest(state.lower, k)
        amb = np.flatnonzero((state.lower <= u_k) & (state.upper >= l_k))
        amb.flags.writeable = False
        band = state.bands[k] = amb, u_k
    return band


def epsilon_max(state: IntervalState, restrict_to=None) -> float:
    """Largest confidence radius, optionally over a subset of items."""
    radius = state.radius()
    if restrict_to is None:
        return float(radius.max())
    idx = np.asarray(restrict_to, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("restrict_to must be non-empty")
    return float(radius[idx].max())


def coverage_event_holds(instance: Instance, state: IntervalState) -> bool:
    """Ground-truth diagnostic: does every interval contain its true value?

    Consumes the hidden values; only tests and the harness may call it.
    """
    v = instance.values
    return bool(np.all((state.lower <= v) & (v <= state.upper)))

