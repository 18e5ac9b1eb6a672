"""Synthetic instance generators and instance-file I/O.

The gap generator plants a clean top-k boundary: the k-th and (k+1)-th values
sit at ``0.5 +- gap/2``, optional near-ties crowd those two levels (as exact
ties: each equals the k-th or the (k+1)-th value), and the background mass
fills the space well below the boundary -- a uniform bulk at the bottom plus
a linearly thinning slope that approaches (but never enters) the boundary
band.  The slope is what makes one-shot screening costs scale with n while
leaving the boundary crowd itself small.

The packing generator builds the adversarial lower-bound construction: m
items share one interval straddling the threshold, so no algorithm can
certify the top-k without strong-querying essentially all of them.  It
returns both the hidden values and the prescribed interval state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Instance, IntervalState
from .validation import check_int, check_k, check_positive, check_probability


# The gap generator's fixed shape: the boundary levels sit at _ANCHOR +- gap/2,
# the slope ends _TAIL_MARGIN below _ANCHOR - gap, the uniform bulk fills
# _BULK_BAND and the clear top items lie below _TOP_HIGH.
_ANCHOR = 0.5
_TAIL_MARGIN = 0.02
_BULK_BAND = (0.05, 0.12)
_TOP_HIGH = 0.98


@dataclass(frozen=True)
class GapInstanceSpec:
    """Parameters of the gap-structured synthetic instance.

    ``near_ties`` defaults to ``2 * k``; near-tie items split between the two
    boundary levels, half of them but at most ``k - 1`` on the top side and
    the rest but at most ``n - k - 1`` at the bottom, and each equals its
    level exactly: the top ones the k-th value, the bottom ones the (k+1)-th.
    The caps bind without a warning: at the default every top-k item ties,
    and once k >= n/2 - 1 so does every other item, which leaves no slope or
    bulk.  ``tail_fraction`` of the background forms the thinning slope
    between the bulk band and the near-tie band; the rest is uniform on the
    bulk band.
    """

    n: int
    k: int
    gap: float = 0.05
    near_ties: Optional[int] = None
    tail_fraction: float = 0.35
    seed: int = 0


def generate_gap_instance(spec: GapInstanceSpec) -> Instance:
    """Deterministically generate an instance with a guaranteed boundary gap.

    Exactly k values exceed 0.5; the realized gap between the k-th and
    (k+1)-th values equals ``spec.gap``, which must be at most 0.36 so that
    the slope clears the bulk band.
    """
    n = check_int(spec.n, "n", minimum=2)
    k = check_int(spec.k, "k")
    if not 1 <= k <= n - 1:
        raise ValueError(f"a gap instance needs 1 <= k <= n - 1 = {n - 1}, got k={k}")
    gap = check_positive(spec.gap, "gap")
    near_ties = 2 * k if spec.near_ties is None else spec.near_ties
    near_ties = check_int(near_ties, "near_ties", minimum=0)
    if not 0.0 < spec.tail_fraction <= 1.0 and spec.tail_fraction != 0.0:
        raise ValueError("tail_fraction must lie in [0, 1]")

    eta = 0.5 * gap
    top_anchor, bottom_anchor = _ANCHOR + eta, _ANCHOR - eta
    bulk_lo, bulk_hi = _BULK_BAND
    slope_hi = _ANCHOR - 2.0 * eta - _TAIL_MARGIN
    if bulk_hi >= slope_hi:
        limit = _ANCHOR - _TAIL_MARGIN - bulk_hi
        raise ValueError(f"gap must be at most {limit:.4g}, got {gap}")

    tie_top = min(near_ties // 2, k - 1)
    tie_bottom = min(near_ties - tie_top, n - k - 1)
    clear_top = k - 1 - tie_top
    background = n - k - 1 - tie_bottom
    n_slope = int(round(spec.tail_fraction * background))
    n_bulk = background - n_slope

    rng = np.random.default_rng(spec.seed)
    parts = [np.array([top_anchor]), np.array([bottom_anchor])]
    parts.append(rng.uniform(top_anchor, _ANCHOR + eta, size=tie_top))
    parts.append(rng.uniform(_ANCHOR + eta, _TOP_HIGH, size=clear_top))
    parts.append(rng.uniform(_ANCHOR - eta, bottom_anchor, size=tie_bottom))
    # thinning slope: linear density, heaviest at the low edge, zero at slope_hi
    parts.append(slope_hi - (slope_hi - bulk_hi) * np.sqrt(rng.random(size=n_slope)))
    parts.append(rng.uniform(bulk_lo, bulk_hi, size=n_bulk))
    values = np.concatenate(parts)
    assert values.size == n
    values = values[rng.permutation(n)]
    return Instance(values=values, k=k)


@dataclass(frozen=True)
class PackingSpec:
    """Parameters of the lower-bound packing construction.

    ``m`` items (the packed set S) carry one shared interval of half-width
    ``radius`` around ``level``; the hidden values inside S sit at
    ``level +- radius / 2`` and everything else at ``level - separation``.
    """

    n: int
    k: int
    m: int
    level: float = 0.5
    radius: float = 0.05
    separation: float = 0.2

    def __post_init__(self):
        n = check_int(self.n, "n", minimum=1)
        m = check_int(self.m, "m", minimum=1, maximum=n)
        check_k(self.k, m)
        radius = check_positive(self.radius, "radius")
        level = check_probability(self.level, "level")
        if self.separation <= 2.0 * radius:
            raise ValueError("separation must exceed twice the radius")
        if level - 2.0 * radius <= 0.0 or level + 2.0 * radius >= 1.0:
            raise ValueError("[level - 2r, level + 2r] must fit inside (0, 1)")
        if level - self.separation - 2.0 * radius <= 0.0:
            raise ValueError("level - separation - 2r must stay positive")


def generate_packing_instance(
    spec: PackingSpec, seed: Optional[int] = None
) -> tuple[Instance, IntervalState]:
    """Build the packing instance and its prescribed interval state.

    The true top-k are k packed items drawn from ``seed``, or the first k
    packed items when it is omitted.  The prescribed intervals cover the true
    values by construction and certify every item outside the packed set as
    OUT.
    """
    n, k, m = spec.n, spec.k, spec.m
    if seed is None:
        target = np.arange(k)
    else:
        target = np.random.default_rng(seed).choice(m, size=k, replace=False)

    values = np.full(n, spec.level - spec.separation)
    values[:m] = spec.level - 0.5 * spec.radius
    values[target] = spec.level + 0.5 * spec.radius

    lower = np.full(n, spec.level - spec.separation - 0.5 * spec.radius)
    upper = np.full(n, spec.level - spec.separation + 0.5 * spec.radius)
    lower[:m] = spec.level - spec.radius
    upper[:m] = spec.level + spec.radius
    state = IntervalState.from_bounds(lower, upper)
    return Instance(values=values, k=k), state


def save_instance(instance: Instance, path) -> None:
    """Write an instance as CSV with header ``item_id,value``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["item_id", "value"])
        for item, value in enumerate(instance.values):
            writer.writerow([item, repr(float(value))])


def load_instance(path, k: int) -> Instance:
    """Read and validate an instance CSV (contiguous ids, values in [0, 1])."""
    values: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [col.strip() for col in header[:2]] != ["item_id", "value"]:
            raise ValueError(f"{path}: expected header 'item_id,value'")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}:{line_no}: expected 'item_id,value'")
            try:
                item = int(row[0])
                value = float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: could not parse {row[:2]!r}") from None
            if item != len(values):
                raise ValueError(
                    f"{path}:{line_no}: item_id {item} out of order (expected {len(values)})"
                )
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{path}:{line_no}: value {value} outside [0, 1]")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no items")
    return Instance(values=np.asarray(values), k=k)
