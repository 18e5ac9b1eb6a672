"""Ground-truth instances, order statistics, and interval-state vocabulary.

An :class:`Instance` is the hidden truth (item values and the target size k);
an :class:`IntervalState` is everything an algorithm is allowed to see: one
confidence interval per item, pull counts, and collapse flags.  The module
also provides the near-tie mass and ambiguous-set computations that drive
every strong-call bound, plus ground-truth diagnostics (coverage checks) that
only test and harness code may call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .validation import check_int, check_item, check_k, check_non_negative, check_values


class Interval(NamedTuple):
    """A closed interval [lower, upper] with lower <= upper."""

    lower: float
    upper: float

    @property
    def radius(self) -> float:
        return 0.5 * (self.upper - self.lower)


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


@dataclass
class IntervalState:
    """Per-item confidence intervals with pull counts and collapse flags.

    Intervals only shrink over an algorithm's lifetime: updates go through
    :meth:`intersect_update`, so lower bounds never decrease and upper bounds
    never increase.  ``collapsed[x]`` records that item x was revealed exactly
    (lower == upper).  ``conflicts`` counts empty intersections, which can
    only occur when some interval failed to cover its true value.
    """

    lower: np.ndarray
    upper: np.ndarray
    pulls: np.ndarray
    collapsed: np.ndarray
    means: Optional[np.ndarray] = None
    conflicts: int = 0

    @classmethod
    def from_bounds(cls, lower, upper, pulls=None, means=None) -> "IntervalState":
        lower = np.asarray(lower, dtype=np.float64).copy()
        upper = np.asarray(upper, dtype=np.float64).copy()
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D arrays of equal length")
        # false where an interval is empty, and where a bound is NaN, which
        # would drop the item out of every ambiguous-set comparison
        valid = lower <= upper
        if not valid.all():
            bad = int(np.argmin(valid))
            what = "NaN bound" if np.isnan([lower[bad], upper[bad]]).any() else "empty interval"
            raise ValueError(f"{what} at item {bad}: [{lower[bad]}, {upper[bad]}]")
        n = lower.size
        if pulls is None:
            pulls = np.zeros(n, dtype=np.int64)
        else:
            pulls = np.asarray(pulls, dtype=np.int64).copy()
        if means is not None:
            means = np.asarray(means, dtype=np.float64).copy()
        return cls(
            lower=lower,
            upper=upper,
            pulls=pulls,
            collapsed=(lower == upper).copy(),
            means=means,
        )

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

    def interval(self, item: int) -> Interval:
        item = check_item(item, self.n)
        return Interval(float(self.lower[item]), float(self.upper[item]))

    def point_estimates(self) -> np.ndarray:
        """Sample means when available, interval midpoints otherwise."""
        if self.means is not None:
            return self.means
        return 0.5 * (self.lower + self.upper)

    def copy(self) -> "IntervalState":
        return IntervalState(
            lower=self.lower.copy(),
            upper=self.upper.copy(),
            pulls=self.pulls.copy(),
            collapsed=self.collapsed.copy(),
            means=None if self.means is None else self.means.copy(),
            conflicts=self.conflicts,
        )

    def intersect_update(self, item: int, lower: float, upper: float) -> bool:
        """Intersect item's interval with [lower, upper]; returns True on conflict.

        An empty intersection is clamped to the boundary point nearest the new
        interval and flagged rather than raised, so runs where coverage failed
        still terminate (and get counted as incorrect).
        """
        if lower > upper:
            raise ValueError(f"empty update interval [{lower}, {upper}]")
        old_lo = self.lower[item]
        old_hi = self.upper[item]
        new_lo = old_lo if old_lo >= lower else lower
        new_hi = old_hi if old_hi <= upper else upper
        conflict = new_lo > new_hi
        if conflict:
            new_lo = new_hi = old_hi if lower > old_hi else old_lo
        # false only when a bound is NaN; checked before anything is written
        if not (old_lo <= new_lo <= new_hi <= old_hi):
            raise ValueError(
                f"non-monotone update of item {item}: [{old_lo}, {old_hi}] -> [{new_lo}, {new_hi}]"
            )
        if conflict:
            self.conflicts += 1
        self.lower[item] = new_lo
        self.upper[item] = new_hi
        if new_lo == new_hi:
            self.collapsed[item] = True
        return bool(conflict)

    def collapse_to(self, item: int, value: float) -> bool:
        """Record an exact reveal of item's value; returns True on conflict."""
        conflict = self.intersect_update(item, value, value)
        self.collapsed[item] = True
        return conflict

    def collapse_many(self, items, values) -> None:
        """``collapse_to(items[i], values[i])`` for every i, vectorised.

        Items must be distinct.  Bounds, conflict clamping, the ``conflicts``
        count and the ``collapsed`` flags come out bit for bit as from the
        sequential calls; a NaN raises before anything is written.
        """
        items = np.asarray(items, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        old_lo = self.lower[items]
        old_hi = self.upper[items]
        # the scalar comparisons of intersect_update with lower == upper == value
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
        self.conflicts += int(np.count_nonzero(conflict))
        self.lower[items] = new_lo
        self.upper[items] = new_hi
        self.collapsed[items] = True


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
    k = check_k(k, state.n)
    u_k = kth_largest(state.upper, k)
    l_k = kth_largest(state.lower, k)
    return np.flatnonzero((state.lower <= u_k) & (state.upper >= l_k))


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


def check_lemma1(instance: Instance, state: IntervalState) -> bool:
    """Ground-truth diagnostic: |ambiguous set| <= m(4 * eps_max).

    Guaranteed whenever the coverage event holds.  The harness checks the
    same bound through the report's ``ambiguous_initial`` and ``eps_max``;
    this function is kept as an exported diagnostic.
    """
    a_size = ambiguous_set(state, instance.k).size
    return a_size <= near_tie_mass(instance, 4.0 * epsilon_max(state))
