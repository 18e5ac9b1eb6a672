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


def epoch_delta(delta_x: float, count: int) -> float:
    """Failure budget charged at pull count `count` of the anytime schedule."""
    epoch = count.bit_length() - 1
    return delta_x / (_PI2_OVER_6 * (epoch + 1) ** 2)


class _Radius:
    """The one radius form: sqrt(2 V L / N) + offset after N pulls.

    ``terms(count, delta_x, anytime)`` gives the log term L that scales the
    sample variance V and the offset added to it.  The anytime schedule
    charges pull count N its epoch budget instead of delta_x; it applies with
    ``anytime=True`` or when the method is anytime.  Each method states its
    terms once, in ``_run_terms``, for a run of counts charged one budget, so
    that a run of an epoch takes one logarithm.
    """

    anytime = False
    reads_variance = True

    def terms(self, count: int, delta_x: float, anytime: bool = False) -> tuple[float, float]:
        """(L, offset) after `count` pulls."""
        if anytime:
            delta_x = epoch_delta(delta_x, count)
        log_terms, offsets = self._run_terms(range(count, count + 1), delta_x, anytime)
        return log_terms[0], offsets[0]

    def anytime_terms(self, first: int, last: int, delta_x: float) -> tuple[list, list]:
        """``terms(count, delta_x, True)`` for count = first..last, as two
        lists, bit for bit, with one logarithm per epoch."""
        log_terms: list[float] = []
        offsets: list[float] = []
        count = first
        while count <= last:
            # the end of count's epoch [2^e, 2^(e+1))
            stop = min(last + 1, 1 << count.bit_length())
            run = self._run_terms(range(count, stop), epoch_delta(delta_x, count), True)
            log_terms += run[0]
            offsets += run[1]
            count = stop
        return log_terms, offsets

    def radius(self, count: int, variance, delta_x: float, anytime: bool = False):
        """Half-width after `count` pulls; `variance` is a scalar or an array.

        The anytime radius reads V as a pull-by-pull phase holds it,
        m2 / (count - 1); see :meth:`batch_radius`.
        """
        anytime = anytime or self.anytime
        minimum = 1 if anytime else self.min_count
        if count < minimum:
            raise ValueError(f"{type(self).__name__} needs at least {minimum} pulls, got {count}")
        log_term, offset = self.terms(count, delta_x, anytime)
        return np.sqrt(2.0 * variance * log_term / count) + offset

    def batch_radius(self, count: int, variances, delta_x: float, anytime: bool = False):
        """``radius`` for the sample variances of batches of `count` pulls.

        On the anytime schedule a batch variance first becomes the running
        sum of squared deviations m2 = V (count - 1), as after sequential
        pulls, so both paths give bit-identical radii.
        """
        if (anytime or self.anytime) and count > 1:
            variances = variances * (count - 1) / (count - 1)
        return self.radius(count, variances, delta_x, anytime)


@dataclass(frozen=True)
class SubGaussian(_Radius):
    """Known-scale sub-Gaussian interval construction."""

    sigma: float = 0.1

    def __post_init__(self):
        check_positive(self.sigma, "sigma")

    min_count = 1
    reads_variance = False

    def _run_terms(self, counts: range, delta: float, anytime: bool) -> tuple[list, list]:
        """No variance term: the offset is sigma sqrt(2 ln(2/d) / N)."""
        scale = 2.0 * math.log(2.0 / delta)
        sigma = self.sigma
        return [0.0] * len(counts), [sigma * math.sqrt(scale / count) for count in counts]


@dataclass(frozen=True)
class EmpiricalBernstein(_Radius):
    """Maurer-Pontil style empirical-Bernstein intervals for bounded noise."""

    support_range: float = 1.0

    def __post_init__(self):
        check_positive(self.support_range, "support_range")

    min_count = 2

    def _run_terms(self, counts: range, delta: float, anytime: bool) -> tuple[list, list]:
        """L = ln(3/d) and the range offset 3 R L / N.

        At a single pull of the anytime schedule (epoch 0 holds no other
        count) there is no variance estimate, so the radius falls back to
        the range-based Hoeffding half-width at the epoch budget.
        """
        if anytime and counts[0] == 1:
            return [0.0], [self.support_range * math.sqrt(math.log(2.0 / delta) / 2.0)]
        log_term = math.log(3.0 / delta)
        scale = 3.0 * self.support_range * log_term
        return [log_term] * len(counts), [scale / count for count in counts]


@dataclass(frozen=True)
class AnytimeEmpiricalBernstein(EmpiricalBernstein):
    """Empirical-Bernstein confidence sequence, valid at every pull count."""

    min_count = 1
    anytime = True


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
        """Uniform per-item failure probability delta_x = delta_weak / n."""
        return self.delta_weak / self.n_items


def build_fixed_intervals(weak, n_pulls: int, budget: DeltaBudget, method: CiMethod) -> IntervalState:
    """Pull every item n_pulls times and build jointly valid intervals.

    Intervals are [mean - r, mean + r] clipped to [0, 1] (clipping only
    shrinks them, so validity is preserved).  An anytime method's radii come
    from its time-uniform schedule evaluated at n_pulls.

    The screen is built once per block of pulls, method and per-item budget
    (see ``WeakOracle.pull_all_screen``), and a state never changes, so every
    certifier that screens one oracle's block gets the same state: the
    bounds, the means the oracle computed and a broadcast pull count.
    """
    n_pulls = check_int(n_pulls, "n_pulls", minimum=method.min_count)
    if weak.n_items != budget.n_items:
        raise ValueError("budget sized for a different number of items")
    # sub-Gaussian radii never read the sample variance
    variance = n_pulls >= 2 and method.reads_variance

    def screen(means, variances) -> IntervalState:
        radii = method.batch_radius(n_pulls, variances if variance else 0.0, budget.per_item)
        lower = np.clip(means - radii, 0.0, 1.0)
        upper = np.clip(means + radii, 0.0, 1.0)
        pulls = np.broadcast_to(np.int64(n_pulls), lower.shape)
        return IntervalState.read_only(lower, upper, pulls, means)

    return weak.pull_all_screen(n_pulls, variance, (method, budget.per_item), screen)
