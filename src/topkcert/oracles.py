"""Weak and strong oracle abstractions with counters and budget enforcement.

The weak oracle serves noisy observations from counter-based substreams:
pull t for item x depends only on (seed, x, t), so a reset oracle replays the
exact same observations.  That makes paired comparisons across algorithms
exact: every algorithm in a replicate sees identical weak samples.

A scalar ``pull`` hashes its one draw.  A batch of pulls goes through
``pull_many``, which charges and returns what the same scalar pulls would, the
i-th pull of an item in the batch reading its stream i places on, and
computes the draws in one vectorized pass; a caller that wants speed batches.
Because a draw depends on nothing but (seed, x, t), it may be computed before
it is pulled: ``AdaptiveCertifyWeak`` plans its adaptive pulls from the draws
``_draws`` computes, which are never charged and which no public method
returns.  ``_charge`` then charges them by stream position, drawing nothing
again; a subclass that overrides ``pull`` or ``pull_many`` is pulled instead,
and its values are compared with the plan's.

After construction, ``reset`` or ``pull_all`` every item sits at one shared
position, held in one integer.  The first ``pull`` or ``pull_many`` after that
maps one int64 position per item, the only position store from then on.  Its
pages are committed only when written: a lone item pulled again and again
from position 0 commits a few, but after a ``pull_all`` the first such pull
writes all n positions (8 MB at n = 1e6).

A uniform screen reads only each item's sample mean, and its sample variance
for empirical-Bernstein radii.  ``pull_all_moments`` pulls exactly as
``pull_all`` does but reduces each block of rows while the kernel still holds
it, so the (n, count) matrix that ``pull_all`` returns is never built; at
n = 1e6 and 12 pulls that matrix is 96 MB.  Both results are returned
read-only; the matrix is cached per (shared position, count), the moments are
not.  ``pull_all_screen`` caches what a screen builds from the moments under
the same key, so every certifier of a replicate holds the same screen and none
can change it.  While every item sits at the shared position,
``pulls_per_item`` is a read-only broadcast of it rather than n integers.

The strong oracle returns true values exactly and keeps an ordered trace of
queries; its call count is the cost objective everywhere in this package.
``query_many`` answers a batch of queries in one numpy step, counted and
traced exactly as the same queries made one at a time.

Budget overruns raise :class:`BudgetExceededError`, a recoverable signal so
harness code can record partial runs instead of crashing a sweep.
"""

from __future__ import annotations

import math
import mmap
import operator
from dataclasses import dataclass

import numpy as np

from . import _hashing
from .core import Instance, _stable_argsort
from .validation import check_int, check_non_negative

_NOISE_MODELS = ("gaussian", "exact")
# A gaussian draw is a value in [0, 1] plus sigma times a standard normal
# within [-8.30, 8.13], so at this sigma or below a draw, its square, and any
# sum of them a screen or a mean can hold stay finite.
SIGMA_MAX = 1e100


def _zeroed(count: int, typecode: str) -> memoryview:
    """`count` zeroed 8-byte items in an anonymous memory map of their own.

    Its pages are committed only when written and go back to the system when
    the map is freed.  malloc may keep a freed block this large on its heap,
    so an oracle built per replicate would ratchet the peak RSS up.
    """
    return memoryview(mmap.mmap(-1, 8 * count)).cast(typecode)


def _item_array(items) -> np.ndarray:
    """`items` as a 1-D integer array; ``TypeError`` for anything else, bools
    included."""
    array = np.asarray(items)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu") or (
        # a sequence that mixes bools into ints becomes an integer array
        not isinstance(items, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, items))
    ):
        raise TypeError(f"items must be a 1-D sequence of integers, got {array.dtype}")
    return array


def _index(x) -> int:
    """An item that is not an int, as one; ``TypeError`` for bools and for
    anything that is not an integer."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"item must be an integer, got {x!r}")


def _served(array: np.ndarray, n: int, oracle: str, limit: int | None, used: int):
    """How many of `array`'s items a loop of scalar calls serves, and the error
    it raises after them (None when it serves all): it stops at the first item
    outside [0, n), and once `used` reaches the budget `limit` (None: none)."""
    count, error = array.size, None
    if count and (array.min() < 0 or array.max() >= n):
        count = int(np.argmax((array < 0) | (array >= n)))
        error = ValueError(f"item must lie in [0, {n}), got {array[count]}")
    if limit is not None and limit - used < count:
        count, error = max(0, limit - used), BudgetExceededError(oracle, limit)
    return count, error


class BudgetExceededError(RuntimeError):
    """An oracle budget would be exceeded by the attempted query."""

    def __init__(self, oracle: str, limit: int):
        super().__init__(f"{oracle} oracle budget of {limit} queries exhausted")
        self.oracle = oracle
        self.limit = limit


class WeakOracle:
    """Cheap, unbiased, noisy value estimator with per-item replay streams."""

    def __init__(
        self,
        instance: Instance,
        noise: str = "gaussian",
        sigma: float = 0.1,
        seed: int = 0,
        clamp: bool = False,
        max_pulls: int | None = None,
    ):
        if noise not in _NOISE_MODELS:
            raise ValueError(f"noise must be one of {_NOISE_MODELS}, got {noise!r}")
        if noise == "gaussian" and not math.isfinite(check_non_negative(sigma, "sigma")):
            raise ValueError(f"sigma must be finite, got {sigma}")
        if noise == "gaussian" and sigma > SIGMA_MAX:
            raise ValueError(
                f"sigma must be at most {SIGMA_MAX:g}, where draws and their sums stay finite; "
                f"got {sigma}"
            )
        self._instance = instance
        self._noise = noise
        self._sigma = float(sigma)
        self._seed = check_int(seed, "seed")
        self._clamp = bool(clamp)
        self.max_pulls = None if max_pulls is None else check_int(max_pulls, "max_pulls", minimum=0)
        self._keys = _hashing.item_keys(self._seed, instance.n)
        self._n = instance.n
        # (shared position, count) -> pull_all's block;
        # ((shared position, count), key) -> pull_all_screen's result
        self._block_cache: dict[tuple[int, int], np.ndarray] = {}
        self._screen_cache: dict[tuple, object] = {}
        self.reset()

    # Read-only: the streams, the cached blocks and the cached screens are
    # all fixed by these at construction, so none may change after it.
    noise = property(lambda self: self._noise)
    sigma = property(lambda self: self._sigma)
    seed = property(lambda self: self._seed)
    clamp = property(lambda self: self._clamp)

    @property
    def n_items(self) -> int:
        return self._n

    @property
    def pulls_per_item(self) -> np.ndarray:
        """Each item's stream position; read-only where all share one."""
        if self._positions is None:
            return np.broadcast_to(np.int64(self._shared_position), self._n)
        return np.frombuffer(self._positions, np.int64).copy()

    def pull(self, x: int) -> float:
        """One observation of item x from its next stream position."""
        if type(x) is not int:
            x = _index(x)
        if not 0 <= x < self._n:
            raise ValueError(f"item must lie in [0, {self._n}), got {x}")
        if self.max_pulls is not None and self.total_pulls >= self.max_pulls:
            raise BudgetExceededError("weak", self.max_pulls)
        self.total_pulls += 1
        positions = self._positions or self._start_positions()
        t = positions[x]
        positions[x] = t + 1
        value = self._instance.values.item(x)
        if self._noise == "exact":
            return value
        value += _hashing.gaussian_scalar(self._keys.item(x), t, self._sigma)
        if self._clamp:
            value = min(1.0, max(0.0, value))
        return value

    def pull_many(self, items) -> np.ndarray:
        """``[pull(x) for x in items]`` as one float64 array: the same values,
        in pull order, and the same ``total_pulls`` and stream positions.  An
        item's i-th pull in the batch reads its stream i places on; that rank
        comes from the batch's order by item, ties by place in the batch.

        At an item out of range, or at the budget, the pulls before it are
        charged and then the same error as ``pull``'s is raised.  Items that
        are not integers (bools included) raise ``TypeError`` before anything
        is charged.  A subclass that overrides ``pull`` has it called once per
        item, in order.
        """
        array = _item_array(items)
        if type(self).pull is not WeakOracle.pull:
            return np.array([self.pull(x) for x in items], dtype=np.float64)
        count, error = _served(array, self._n, "weak", self.max_pulls, self.total_pulls)
        taken = array[:count].astype(np.int64)
        values = np.zeros(0)
        if count:
            self.total_pulls += count
            positions = np.frombuffer(self._positions or self._start_positions(), np.int64)
            order = _stable_argsort(taken)
            ranked = taken[order]
            first = np.concatenate(([0], 1 + np.flatnonzero(np.diff(ranked))))
            lengths = np.diff(np.append(first, count))
            rank = np.empty(count, dtype=np.int64)
            rank[order] = np.arange(count) - np.repeat(first, lengths)
            values = self._draws(taken, positions[taken] + rank, 1).reshape(-1)
            positions[ranked[first]] += lengths
        if error is not None:
            raise error
        return values

    def _charge(self, items: np.ndarray, positions: np.ndarray, draws: np.ndarray) -> None:
        """Charge the planned pulls of `items`, in pull order, which a plan
        read from ``_draws`` as `draws` at the stream `positions`; a plan
        puts each item's pulls at consecutive positions, rising in pull order.

        This oracle draws nothing again: a draw is a function of (seed, item,
        position), so a pull returns its planned draw exactly when it lands
        where the plan put it.  Each item's lowest planned position must be
        its stream position, or ``RuntimeError`` is raised before anything
        is charged; then every item moves past its highest.  At the budget
        the pulls that fit, in pull order, are charged, and then the same
        error as ``pull_many``'s is raised.

        A subclass that overrides ``pull`` or ``pull_many`` has the batch
        pulled through ``pull_many``, and a value that differs from its
        planned draw by a single bit raises ``RuntimeError``.
        """
        if type(self).pull is not WeakOracle.pull or type(self).pull_many is not WeakOracle.pull_many:
            if self.pull_many(items).tobytes() != draws.tobytes():
                raise RuntimeError("the weak oracle did not return the draws its streams define")
            return
        count, error = _served(items, self._n, "weak", self.max_pulls, self.total_pulls)
        if count:
            items, positions = items[:count], positions[:count]
            stream = np.frombuffer(self._positions or self._start_positions(), np.int64)
            at = stream[items]
            # each item's lowest planned position, found in its own slot,
            # which holds its stream position again where the two agree
            stream[items] = np.iinfo(np.int64).max
            np.minimum.at(stream, items, positions)
            if not np.array_equal(stream[items], at):
                stream[items] = at
                raise RuntimeError("the weak oracle's streams are not where the plan put its pulls")
            np.maximum.at(stream, items, positions + 1)
            self.total_pulls += count
        if error is not None:
            raise error

    def _draws(self, items, starts, count: int) -> np.ndarray:
        """The observations `pull` returns for `count` positions from each start;
        uncharged, so never returned by a public method."""
        if self._noise == "exact":
            return np.repeat(self._instance.values[items].reshape(-1, 1), count, axis=1)
        rows = _hashing.gaussian_rows(
            self._keys[items], starts, count, self._sigma, self._instance.values[items]
        )
        if self._clamp:
            np.clip(rows, 0.0, 1.0, out=rows)
            # clip keeps -0.0, which the scalar path's max(0.0, v) turns into 0.0
            rows += 0.0
        return rows

    def pull_all(self, count: int) -> np.ndarray:
        """An (n, count) matrix: each item's next `count` observations.

        Requires all items to sit at the same stream position (the uniform
        weak phase).  Blocks are cached by position since regeneration is
        deterministic anyway, and are returned read-only so that no caller
        can change what a replayed pass observes.
        """
        key = self._advance_all(count)
        cached = self._block_cache.get(key)
        if cached is None:
            t0, count = key
            values = self._instance.values
            if self._noise == "exact":
                cached = np.tile(values[:, None], (1, count))
            else:
                cached = _hashing.gaussian_rows(self._keys, t0, count, self._sigma, values)
                if self._clamp:
                    np.clip(cached, 0.0, 1.0, out=cached)
            cached.flags.writeable = False
            self._block_cache[key] = cached
        return cached

    def pull_all_moments(
        self, count: int, variance: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The row means of the block ``pull_all`` returns for `count`, and its
        row variances (ddof=1) when `variance` is set (else None), without
        building that block.

        Pulls, checks and counts exactly as ``pull_all`` does, and is
        bit-identical to ``.mean(axis=1)`` and ``.var(axis=1, ddof=1)`` of its
        block.  The moments are returned read-only.  A subclass that overrides
        ``pull_all`` has it called once and its block reduced.
        """
        count = check_int(count, "count", minimum=2 if variance else 1)
        if type(self).pull_all is not WeakOracle.pull_all:
            block = self.pull_all(count)
            return block.mean(axis=1), block.var(axis=1, ddof=1) if variance else None
        return self._moments(self._advance_all(count), variance)

    def pull_all_screen(self, count: int, variance: bool, key, build):
        """``build(*pull_all_moments(count, variance))``, built once per block.

        Pulls, checks and counts as ``pull_all_moments`` does.  What `build`
        returns is cached under the block and the hashable `key`, and survives
        ``reset``: a later call on the same block with an equal key returns it
        unbuilt.  `build` must depend on nothing but the moments and `key`.  A
        subclass that overrides ``pull_all`` or ``pull_all_moments`` has `build`
        called on every call.
        """
        if (type(self).pull_all is not WeakOracle.pull_all
                or type(self).pull_all_moments is not WeakOracle.pull_all_moments):
            return build(*self.pull_all_moments(count, variance))
        count = check_int(count, "count", minimum=2 if variance else 1)
        entry = (self._advance_all(count), key)
        if entry not in self._screen_cache:
            self._screen_cache[entry] = build(*self._moments(entry[0], variance))
        return self._screen_cache[entry]

    def _moments(self, key: tuple[int, int], variance: bool):
        """The read-only moments of the block at `key`, (shared position, count)."""
        t0, count = key
        keys = None if self._noise == "exact" else self._keys
        moments = _hashing.row_moments(
            keys, t0, count, self._sigma, self._instance.values, self._clamp, variance
        )
        for array in moments:
            if array is not None:
                array.flags.writeable = False
        return moments

    def _advance_all(self, count: int) -> tuple[int, int]:
        """Charge `count` pulls of every item from their one shared position
        and move them all past it; returns (that position, count)."""
        count = check_int(count, "count", minimum=1)
        if self._positions is None:
            t0 = self._shared_position
        else:
            positions = np.frombuffer(self._positions, np.int64)
            t0 = int(positions[0])
            if np.any(positions != t0):
                raise ValueError("pull_all requires uniform per-item pull counts")
        amount = self._n * count
        if self.max_pulls is not None and self.total_pulls + amount > self.max_pulls:
            raise BudgetExceededError("weak", self.max_pulls)
        self.total_pulls += amount
        self._shared_position = t0 + count
        self._positions = None
        return t0, count

    def reset(self) -> None:
        """Rewind every stream to position zero; replays identical samples."""
        self.total_pulls = 0
        self._shared_position = 0
        # one position per item once a pull needs it; None while every item
        # sits at the shared position
        self._positions: memoryview | None = None

    def _start_positions(self) -> memoryview:
        """Leave the shared state: one position per item, all at the shared one."""
        self._positions = _zeroed(self._n, "q")
        if self._shared_position:
            # a fresh map already reads 0
            np.frombuffer(self._positions, np.int64)[:] = self._shared_position
        return self._positions


class StrongOracle:
    """Exact value evaluator; every query is counted and traced."""

    def __init__(self, instance: Instance, cap: int | None = None):
        self._values = instance.values
        self._n = instance.n
        self.cap = None if cap is None else check_int(cap, "cap", minimum=0)
        self.calls = 0
        self.trace: list[int] = []

    @property
    def n_items(self) -> int:
        return self._n

    def query(self, x: int) -> float:
        if type(x) is not int:
            x = _index(x)
        if not 0 <= x < self._n:
            raise ValueError(f"item must lie in [0, {self._n}), got {x}")
        if self.cap is not None and self.calls >= self.cap:
            raise BudgetExceededError("strong", self.cap)
        value = self._values.item(x)
        self.calls += 1
        self.trace.append(x)
        return value

    def query_many(self, items) -> np.ndarray:
        """``[query(x) for x in items]`` as one float64 array: the same values,
        ``calls`` and ``trace``.

        At an item out of range, or at the cap, the items before it are
        counted and traced and then the same error as ``query``'s is raised.
        Items that are not integers (bools included) raise ``TypeError``
        before anything is counted.  A subclass that overrides ``query`` has it
        called once per item, with an array's items as ints.
        """
        array = _item_array(items)
        if type(self).query is not StrongOracle.query:
            calls = items.tolist() if isinstance(items, np.ndarray) else items
            return np.array([self.query(x) for x in calls], dtype=np.float64)
        if not array.size:
            return np.zeros(0)
        count, error = _served(array, self._n, "strong", self.cap, self.calls)
        taken = array[:count]
        values = self._values[taken]
        self.calls += count
        # int() hands back a list's own int objects, so a caller that keeps
        # the list shares them with the trace instead of holding a copy
        if isinstance(items, list):
            self.trace.extend(map(int, items[:count]))
        else:
            self.trace.extend(taken.tolist())
        if error is not None:
            raise error
        return values

    def reset(self) -> None:
        self.calls = 0
        self.trace = []


@dataclass(frozen=True)
class OracleStats:
    """A snapshot of oracle counters, for reporting."""

    weak_pulls_total: int
    weak_pulls_per_item: np.ndarray
    strong_calls: int
    strong_query_trace: tuple[int, ...]

    @classmethod
    def collect(cls, weak: WeakOracle | None, strong: StrongOracle | None) -> "OracleStats":
        return cls(
            weak_pulls_total=0 if weak is None else weak.total_pulls,
            weak_pulls_per_item=(
                np.zeros(0, dtype=np.int64) if weak is None else weak.pulls_per_item
            ),
            strong_calls=0 if strong is None else strong.calls,
            strong_query_trace=() if strong is None else tuple(strong.trace),
        )


def snapshot_and_reset(weak: WeakOracle | None, strong: StrongOracle | None) -> OracleStats:
    """Snapshot counters and rewind both oracles for the next algorithm.

    Weak streams are counter-based, so after the reset the next consumer
    observes the identical samples; that is what makes strong-call
    comparisons between algorithms exactly paired.
    """
    stats = OracleStats.collect(weak, strong)
    if weak is not None:
        weak.reset()
    if strong is not None:
        strong.reset()
    return stats
