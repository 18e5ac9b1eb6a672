"""Confidence-interval mathematics.

Three interval constructions are supported:

* ``SubGaussian`` -- known noise scale sigma; radius sigma * sqrt(2 ln(2/d) / N).
  Valid for any sigma-sub-Gaussian observation noise (in particular Gaussian),
  bounded or not.
* ``EmpiricalBernstein`` -- bounded observations with support range R; radius
  sqrt(2 V ln(3/d) / N) + 3 R ln(3/d) / N with V the unbiased sample variance.
* ``AnytimeEmpiricalBernstein`` -- a time-uniform empirical-Bernstein sequence,
  valid simultaneously at every pull count.

Time-uniform radii charge the failure budget across doubling epochs: pull
count w in epoch e = floor(log2 w) is charged d_e = d_x * 6 / (pi^2 (e+1)^2),
so the epoch budgets sum to d_x.  The same schedule applied to the
sub-Gaussian radius gives the anytime variant used when noise is Gaussian
with known sigma.  Time-uniform validity of the schedule is checked by
Monte-Carlo violation counting in the test suite.

Per-item failure probabilities come from a Bonferroni split of the weak
budget, so the joint event "every interval covers its value" holds with
probability at least 1 - delta_weak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import IntervalState
from .validation import check_int, check_positive, check_probability

_PI2_OVER_6 = math.pi**2 / 6.0


@dataclass(frozen=True)
class SubGaussian:
    """Known-scale sub-Gaussian interval construction."""

    sigma: float = 0.1

    def __post_init__(self):
        check_positive(self.sigma, "sigma")

    min_count = 1


@dataclass(frozen=True)
class EmpiricalBernstein:
    """Maurer-Pontil style empirical-Bernstein intervals for bounded noise."""

    support_range: float = 1.0

    def __post_init__(self):
        check_positive(self.support_range, "support_range")

    min_count = 2


@dataclass(frozen=True)
class AnytimeEmpiricalBernstein:
    """Empirical-Bernstein confidence sequence, valid at every pull count."""

    support_range: float = 1.0

    def __post_init__(self):
        check_positive(self.support_range, "support_range")

    min_count = 1


CiMethod = Union[SubGaussian, EmpiricalBernstein, AnytimeEmpiricalBernstein]

_METHOD_NAMES = {
    "subgaussian": SubGaussian,
    "empirical_bernstein": EmpiricalBernstein,
    "anytime_empirical_bernstein": AnytimeEmpiricalBernstein,
}


def ci_method_from_config(name: str, sigma: float = 0.1, support_range: float = 1.0) -> CiMethod:
    """Build a CI method from flat config values (``ci.method`` et al.)."""
    try:
        cls = _METHOD_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown ci method {name!r}; expected one of {sorted(_METHOD_NAMES)}"
        ) from None
    if cls is SubGaussian:
        return SubGaussian(sigma=sigma)
    return cls(support_range=support_range)


@dataclass(frozen=True)
class DeltaBudget:
    """Failure-probability bookkeeping: delta = delta_weak + delta_strong.

    The strong oracle is exact, so delta_strong is fixed to zero and the
    whole budget goes to the weak phase unless a smaller fraction is chosen.
    """

    delta_total: float
    delta_weak: float
    delta_strong: float
    n_items: int

    def __post_init__(self):
        check_probability(self.delta_total, "delta_total")
        check_int(self.n_items, "n_items", minimum=1)
        if self.delta_strong != 0.0:
            raise ValueError("delta_strong must be 0 (exact strong oracle)")
        if not 0.0 < self.delta_weak <= self.delta_total:
            raise ValueError("delta_weak must lie in (0, delta_total]")

    @classmethod
    def split(cls, delta: float, n_items: int, weak_fraction: float = 1.0) -> "DeltaBudget":
        delta = check_probability(delta, "delta")
        if not 0.0 < weak_fraction <= 1.0:
            raise ValueError("weak_fraction must lie in (0, 1]")
        return cls(
            delta_total=delta,
            delta_weak=delta * weak_fraction,
            delta_strong=0.0,
            n_items=check_int(n_items, "n_items", minimum=1),
        )

    @property
    def per_item(self) -> float:
        return bonferroni_split(self.delta_weak, self.n_items)


def bonferroni_split(delta_weak: float, n: int) -> float:
    """Uniform per-item failure probability delta_x = delta_weak / n."""
    check_probability(delta_weak, "delta_weak")
    n = check_int(n, "n", minimum=1)
    return delta_weak / n


@dataclass
class StreamStats:
    """Running count, mean and sum of squared deviations (Welford update)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    @classmethod
    def from_values(cls, values) -> "StreamStats":
        stats = cls()
        for v in np.asarray(values, dtype=np.float64):
            stats.update(float(v))
        return stats

    @property
    def variance(self) -> float:
        """Unbiased sample variance; requires count >= 2."""
        if self.count < 2:
            raise ValueError("variance needs at least two observations")
        return self.m2 / (self.count - 1)


def fixed_radius(method: CiMethod, stats: StreamStats, delta_x: float) -> float:
    """Half-width of a (1 - delta_x) interval after stats.count pulls."""
    check_probability(delta_x, "delta_x")
    if stats.count < method.min_count:
        raise ValueError(
            f"{type(method).__name__} needs at least {method.min_count} pulls, got {stats.count}"
        )
    if isinstance(method, SubGaussian):
        return method.sigma * math.sqrt(2.0 * math.log(2.0 / delta_x) / stats.count)
    if isinstance(method, EmpiricalBernstein):
        log_term = math.log(3.0 / delta_x)
        r = method.support_range
        return math.sqrt(2.0 * stats.variance * log_term / stats.count) + 3.0 * r * log_term / stats.count
    if isinstance(method, AnytimeEmpiricalBernstein):
        return anytime_radius(stats, delta_x, method.support_range)
    raise TypeError(f"unknown CI method {method!r}")


def epoch_delta(delta_x: float, count: int) -> float:
    """Failure budget charged at pull count `count` of the anytime schedule."""
    epoch = count.bit_length() - 1
    return delta_x / (_PI2_OVER_6 * (epoch + 1) ** 2)


def anytime_radius(stats: StreamStats, delta_x: float, support_range: float = 1.0) -> float:
    """Empirical-Bernstein sequence radius, valid for all pull counts at once.

    At a single observation there is no variance estimate, so the radius
    falls back to the range-based Hoeffding half-width at the epoch budget.
    """
    check_probability(delta_x, "delta_x")
    if stats.count < 1:
        raise ValueError("anytime radius needs at least one pull")
    delta_w = epoch_delta(delta_x, stats.count)
    if stats.count == 1:
        return support_range * math.sqrt(math.log(2.0 / delta_w) / 2.0)
    log_term = math.log(3.0 / delta_w)
    return (
        math.sqrt(2.0 * stats.variance * log_term / stats.count)
        + 3.0 * support_range * log_term / stats.count
    )


def anytime_subgaussian_radius(sigma: float, count: int, delta_x: float) -> float:
    """Sub-Gaussian sequence radius under the same doubling-epoch schedule."""
    delta_w = epoch_delta(delta_x, count)
    return sigma * math.sqrt(2.0 * math.log(2.0 / delta_w) / count)


def _fixed_radii(method: CiMethod, counts: np.ndarray, variances, delta_x: float) -> np.ndarray:
    """Vectorized fixed_radius over per-item counts/variances."""
    counts = np.asarray(counts, dtype=np.float64)
    if isinstance(method, SubGaussian):
        return method.sigma * np.sqrt(2.0 * math.log(2.0 / delta_x) / counts)
    if isinstance(method, EmpiricalBernstein):
        log_term = math.log(3.0 / delta_x)
        variances = np.asarray(variances, dtype=np.float64)
        return np.sqrt(2.0 * variances * log_term / counts) + 3.0 * method.support_range * log_term / counts
    if isinstance(method, AnytimeEmpiricalBernstein):
        check_probability(delta_x, "delta_x")
        variances = np.asarray(variances, dtype=np.float64)
        whole = counts.astype(np.int64)
        out = np.empty_like(counts)
        support = method.support_range
        # per distinct count, the same operations anytime_radius applies to a
        # StreamStats with m2 = variance * (count - 1)
        for c in np.unique(whole).tolist():
            if c < 1:
                raise ValueError("anytime radius needs at least one pull")
            at = whole == c
            delta_w = epoch_delta(delta_x, c)
            if c == 1:
                out[at] = support * math.sqrt(math.log(2.0 / delta_w) / 2.0)
                continue
            log_term = math.log(3.0 / delta_w)
            variance = variances[at] * (c - 1) / (c - 1)
            out[at] = np.sqrt(2.0 * variance * log_term / c) + 3.0 * support * log_term / c
        return out
    raise TypeError(f"unknown CI method {method!r}")


def build_fixed_intervals(
    weak,
    n_pulls: int,
    budget: DeltaBudget,
    method: CiMethod,
    anytime: bool = False,
) -> IntervalState:
    """Pull every item n_pulls times and build jointly valid intervals.

    Intervals are [mean - r, mean + r] clipped to [0, 1] (clipping only
    shrinks them, so validity is preserved).  With ``anytime=True`` the radii
    come from the time-uniform schedule evaluated at n_pulls, which is how an
    adaptive weak phase warm-starts.
    """
    n_pulls = check_int(n_pulls, "n_pulls", minimum=method.min_count)
    if weak.n_items != budget.n_items:
        raise ValueError("budget sized for a different number of items")
    delta_x = budget.per_item
    obs = weak.pull_all(n_pulls)
    means = obs.mean(axis=1)
    # sub-Gaussian radii never read the sample variance, whose computation
    # allocates an (n, n_pulls) temporary
    if n_pulls >= 2 and not isinstance(method, SubGaussian):
        variances = obs.var(axis=1, ddof=1)
    else:
        variances = np.zeros(weak.n_items)
    counts = np.full(weak.n_items, n_pulls, dtype=np.int64)
    if anytime:
        if isinstance(method, SubGaussian):
            radii = np.full(
                weak.n_items, anytime_subgaussian_radius(method.sigma, n_pulls, delta_x)
            )
        else:
            log_term = math.log(3.0 / epoch_delta(delta_x, n_pulls))
            if n_pulls == 1:
                radii = np.full(
                    weak.n_items,
                    method.support_range * math.sqrt(math.log(2.0 / epoch_delta(delta_x, 1)) / 2.0),
                )
            else:
                radii = (
                    np.sqrt(2.0 * variances * log_term / n_pulls)
                    + 3.0 * method.support_range * log_term / n_pulls
                )
    else:
        radii = _fixed_radii(method, counts, variances, delta_x)
    lower = np.clip(means - radii, 0.0, 1.0)
    upper = np.clip(means + radii, 0.0, 1.0)
    return IntervalState.from_bounds(lower, upper, pulls=counts, means=means)


def intersect_update(state: IntervalState, item: int, lower: float, upper: float) -> bool:
    """Shrink item's interval to its intersection with [lower, upper].

    Empty intersections (possible only off the coverage event) are clamped to
    the boundary point nearest the new interval and flagged on the state.
    """
    return state.intersect_update(item, lower, upper)
