"""Weak and strong oracle abstractions with counters and budget enforcement.

The weak oracle serves noisy observations from counter-based substreams:
pull t for item x depends only on (seed, x, t), so a reset oracle replays the
exact same observations.  That makes paired comparisons across algorithms
exact: every algorithm in a replicate sees identical weak samples.

The strong oracle returns true values exactly and keeps an ordered trace of
queries; its call count is the cost objective everywhere in this package.

Budget overruns raise :class:`BudgetExceededError`, a recoverable signal so
harness code can record partial runs instead of crashing a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _hashing
from .core import Instance
from .validation import check_int, check_item, check_non_negative

_NOISE_MODELS = ("gaussian", "exact")


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
        self._keys_int = self._keys.tolist()
        self._values = instance.values.tolist()
        self._n = instance.n
        self._counts = [0] * instance.n
        self.total_pulls = 0
        self._block_cache: dict[tuple[int, int], np.ndarray] = {}

    @property
    def n_items(self) -> int:
        return self._n

    @property
    def pulls_per_item(self) -> np.ndarray:
        return np.asarray(self._counts, dtype=np.int64)

    def _charge(self, amount: int) -> None:
        if self.max_pulls is not None and self.total_pulls + amount > self.max_pulls:
            raise BudgetExceededError("weak", self.max_pulls)
        self.total_pulls += amount

    def pull(self, x: int) -> float:
        """One observation of item x from its next stream position."""
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

    def pull_block(self, x: int, count: int) -> np.ndarray:
        """The next `count` observations of item x."""
        x = check_item(x, self.n_items)
        count = check_int(count, "count", minimum=1)
        self._charge(count)
        t0 = self._counts[x]
        self._counts[x] = t0 + count
        if self.noise == "exact":
            return np.full(count, self._values[x])
        obs = self._values[x] + _hashing.gaussian_block(self._keys_int[x], t0, count, self.sigma)
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

    def reset(self) -> None:
        """Rewind every stream to position zero; replays identical samples."""
        self._counts = [0] * self.n_items
        self.total_pulls = 0


class StrongOracle:
    """Exact value evaluator; every query is counted and traced."""

    def __init__(self, instance: Instance, cap: int | None = None):
        self._values = instance.values.tolist()
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
        value = self._values[x]
        self.calls += 1
        self.trace.append(int(x))
        return value

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
