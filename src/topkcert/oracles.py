"""Weak and strong oracle abstractions with counters and budget enforcement.

The weak oracle serves noisy observations from counter-based substreams:
pull t for item x depends only on (seed, x, t), so a reset oracle replays the
exact same observations.  That makes paired comparisons across algorithms
exact: every algorithm in a replicate sees identical weak samples.

Because a draw depends on nothing but (seed, x, t), it may be computed before
it is pulled, and a scalar ``pull`` is served from a lookahead window of the
item's next observations whenever it has one:

- A pull that finds no window takes the scalar path, and the item waits.
  Once ``_REFILL_AT`` items wait, one vectorized pass fills each of their
  windows with the next ``_AHEAD`` draws from the item's current position.
- Once an ``_AHEAD``-th as many pulls as there are items have missed since
  the shared position was set, the next refill also fills the window of
  every item still at it.
- An item that takes the scalar path ``_RUN_AFTER`` times before a refill
  gets a window of its own, ``_RUN_AHEAD`` draws long; it replaces the
  previous such window.

A numpy pass costs about as much as a few dozen scalar draws, so each rule
waits until the scalar pulls already paid are of the order of its cost: an
adaptive loop that spreads its pulls over many items, or stays on one item
for long, pays for its draws in numpy, and a pattern that does neither keeps
the scalar path.  Windows hold the same bits as the scalar path, and stream
positions only grow between resets, so a window stays valid until it runs
out, across ``pull_block`` and ``pull_all``.

Stream positions cost nothing per item until the first refill: one integer
holds the position every item shares after ``pull_all``, and a dict the
positions of items pulled on their own since.  The first refill moves them
into one array of (position, window end) pairs beside the windows, so a lone
item pulled again and again never makes the oracle allocate per-item state.

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
from .core import Instance
from .validation import check_int, check_item, check_non_negative

_NOISE_MODELS = ("gaussian", "exact")
# draws per window, items waiting before a refill, scalar pulls of one item
# before it gets a window of its own, and that window's length (see the
# module docstring)
_AHEAD = 16
_REFILL_AT = 64
_RUN_AFTER = 16
_RUN_AHEAD = 128


def _zeroed(count: int, typecode: str) -> memoryview:
    """`count` zeroed 8-byte items in an anonymous memory map of their own.

    Its pages are committed only when written and go back to the system when
    the map is freed.  malloc may keep a freed block this large on its heap,
    so an oracle built per replicate would ratchet the peak RSS up.
    """
    return memoryview(mmap.mmap(-1, 8 * count)).cast(typecode)


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
        if noise == "gaussian":
            check_non_negative(sigma, "sigma")
        self._instance = instance
        self.noise = noise
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.clamp = bool(clamp)
        self.max_pulls = None if max_pulls is None else check_int(max_pulls, "max_pulls", minimum=0)
        self._keys = _hashing.item_keys(self.seed, instance.n)
        self._n = instance.n
        self._block_cache: dict[tuple[int, int], np.ndarray] = {}
        self.reset()

    @property
    def n_items(self) -> int:
        return self._n

    @property
    def pulls_per_item(self) -> np.ndarray:
        if self._track is not None:
            return np.frombuffer(self._track, np.int64)[::2].copy()
        counts = np.full(self._n, self._shared_position, dtype=np.int64)
        positions = self._positions
        if positions:
            items = np.fromiter(positions, np.int64, len(positions))
            counts[items] = np.fromiter(positions.values(), np.int64, len(positions))
        return counts

    def _charge(self, amount: int) -> None:
        if self.max_pulls is not None and self.total_pulls + amount > self.max_pulls:
            raise BudgetExceededError("weak", self.max_pulls)
        self.total_pulls += amount

    def pull(self, x: int) -> float:
        """One observation of item x from its next stream position."""
        if type(x) is not int:
            x = operator.index(x)
        if not 0 <= x < self._n:
            raise ValueError(f"item must lie in [0, {self._n}), got {x}")
        if self.max_pulls is not None and self.total_pulls >= self.max_pulls:
            raise BudgetExceededError("weak", self.max_pulls)
        self.total_pulls += 1
        track = self._track
        if track is not None:
            i = 2 * x
            t = track[i]
            track[i] = t + 1
            # positions only grow while a window lives, so a window that
            # ends after t starts at or before it
            end = track[i + 1]
            if t < end:
                return self._windows[(x + 1) * _AHEAD - end + t]
        else:
            positions = self._positions
            t = positions.get(x, self._shared_position)
            positions[x] = t + 1
        if x == self._run_item and t < self._run_end:
            return self._run[t - self._run_start]
        value = self._instance.values.item(x)
        if self.noise == "exact":
            return value
        value += _hashing.gaussian_scalar(self._keys.item(x), t, self.sigma)
        if self.clamp:
            value = min(1.0, max(0.0, value))
        waiting = self._waiting
        misses = waiting.get(x, 0) + 1
        waiting[x] = misses
        if misses >= _RUN_AFTER:
            del waiting[x]
            self._fill_run(x, t + 1)
        elif len(waiting) >= _REFILL_AT:
            self._refill()
        return value

    def _draws(self, items, starts, count: int) -> np.ndarray:
        """The observations `pull` returns for `count` positions from each start."""
        rows = _hashing.gaussian_rows(
            self._keys[items], starts, count, self.sigma, self._instance.values[items]
        )
        if self.clamp:
            np.clip(rows, 0.0, 1.0, out=rows)
            # clip keeps -0.0, which the scalar path's max(0.0, v) turns into 0.0
            rows += 0.0
        return rows

    def _refill(self) -> None:
        """Fill the window of every waiting item in one vectorized pass, and
        once enough pulls have missed, of every item at the shared position."""
        n, waiting = self._n, self._waiting
        items = np.fromiter(waiting, np.int64, len(waiting))
        self._misses_before_shared_fill -= sum(waiting.values())
        waiting.clear()
        if self._track is None:
            positions = self.pulls_per_item
            self._track, self._windows = _zeroed(2 * n, "q"), _zeroed(n * _AHEAD, "d")
            self._positions = {}
            np.frombuffer(self._track, np.int64)[::2] = positions
        track = np.frombuffer(self._track, np.int64).reshape(n, 2)
        windows = np.frombuffer(self._windows, np.float64).reshape(n, _AHEAD)
        starts = track[items, 0]
        windows[items] = self._draws(items, starts, _AHEAD)
        track[items, 1] = starts + _AHEAD
        if self._misses_before_shared_fill <= 0:
            self._misses_before_shared_fill = math.inf
            shared = self._shared_position
            items = np.flatnonzero(track[:, 0] == shared)
            for lo in range(0, items.size, _hashing.ROW_BLOCK):
                chunk = items[lo : lo + _hashing.ROW_BLOCK]
                windows[chunk] = self._draws(chunk, shared, _AHEAD)
            track[items, 1] = shared + _AHEAD

    def _fill_run(self, x: int, start: int) -> None:
        """Give item x, pulled again and again, a long window of its own from `start`."""
        self._run = memoryview(self._draws(slice(x, x + 1), start, _RUN_AHEAD).reshape(-1))
        self._run_item, self._run_start, self._run_end = x, start, start + _RUN_AHEAD

    def pull_block(self, x: int, count: int) -> np.ndarray:
        """The next `count` observations of item x."""
        x = check_item(x, self.n_items)
        count = check_int(count, "count", minimum=1)
        self._charge(count)
        if self._track is not None:
            t0 = self._track[2 * x]
            self._track[2 * x] = t0 + count
        else:
            t0 = self._positions.get(x, self._shared_position)
            self._positions[x] = t0 + count
        value = self._instance.values.item(x)
        if self.noise == "exact":
            return np.full(count, value)
        obs = value + _hashing.gaussian_block(self._keys.item(x), t0, count, self.sigma)
        return np.clip(obs, 0.0, 1.0) if self.clamp else obs

    def pull_all(self, count: int) -> np.ndarray:
        """An (n, count) matrix: each item's next `count` observations.

        Requires all items to sit at the same stream position (the uniform
        weak phase).  Blocks are cached by position since regeneration is
        deterministic anyway, and are returned read-only so that no caller
        can change what a replayed pass observes.
        """
        count = check_int(count, "count", minimum=1)
        n = self.n_items
        counts = self.pulls_per_item
        t0 = int(counts[0])
        if np.any(counts != t0):
            raise ValueError("pull_all requires uniform per-item pull counts")
        self._charge(n * count)
        self._shared_position = t0 + count
        self._positions.clear()
        if self._track is not None:
            np.frombuffer(self._track, np.int64)[::2] = t0 + count
        self._waiting.clear()
        self._misses_before_shared_fill = n // _AHEAD
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

    def reset(self) -> None:
        """Rewind every stream to position zero; replays identical samples."""
        self.total_pulls = 0
        self._shared_position = 0
        # until the first refill: the positions of items pulled on their own,
        # every other item sitting at the shared position
        self._positions: dict[int, int] = {}
        # from the first refill: [position, window end] per item, the window
        # being _AHEAD draws that end there (0: none), in _windows
        self._track: memoryview | None = None
        self._windows: memoryview | None = None
        # items whose pulls missed every window -> misses since their last one
        self._waiting: dict[int, int] = {}
        self._misses_before_shared_fill = self._n // _AHEAD
        # one item's next _RUN_AHEAD draws from _run_start on
        self._run: memoryview | None = None
        self._run_item = self._run_start = self._run_end = -1


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
        if not 0 <= x < self._n:
            raise ValueError(f"item must lie in [0, {self._n}), got {x}")
        if self.cap is not None and self.calls >= self.cap:
            raise BudgetExceededError("strong", self.cap)
        value = self._values.item(x)
        self.calls += 1
        self.trace.append(int(x))
        return value

    def query_many(self, items) -> np.ndarray:
        """``[query(x) for x in items]`` as one float64 array: the same values,
        ``calls`` and ``trace``.

        At an item out of range, or at the cap, the items before it are
        counted and traced and then the same error as ``query``'s is raised.
        Items that are not integers raise ``TypeError`` before anything is
        counted.  A subclass that overrides ``query`` has it called once per
        item.
        """
        array = np.asarray(items)
        if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
            raise TypeError(f"items must be a 1-D sequence of integers, got {array.dtype}")
        if type(self).query is not StrongOracle.query:
            return np.array([self.query(x) for x in items], dtype=np.float64)
        if not array.size:
            return np.zeros(0)
        n, count = self._n, array.size
        outside = (array < 0) | (array >= n)
        if outside.any():
            count = int(np.argmax(outside))
        if self.cap is not None:
            count = min(count, max(0, self.cap - self.calls))
        taken = array[:count]
        values = self._values[taken]
        self.calls += count
        # int() hands back a list's own int objects, so a caller that keeps
        # the list shares them with the trace instead of holding a copy
        if isinstance(items, list):
            self.trace.extend(map(int, items[:count]))
        else:
            self.trace.extend(taken.tolist())
        if count < array.size:
            if outside[count]:
                raise ValueError(f"item must lie in [0, {n}), got {array[count]}")
            raise BudgetExceededError("strong", self.cap)
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
