"""Synthetic instance generators and instance-file I/O.

The gap generator plants a clean top-k boundary: the k-th and (k+1)-th values
sit at ``anchor +- gap/2``, optional near-ties crowd those two levels, and the
background mass fills the space well below the boundary -- a uniform bulk at
the bottom plus a linearly thinning slope that approaches (but never enters)
the boundary band.  The slope is what makes one-shot screening costs scale
with n while leaving the boundary crowd itself small.

The packing generator builds the adversarial lower-bound construction: m
items share one interval straddling the threshold, so no algorithm can
certify the top-k without strong-querying essentially all of them.  It
returns both the hidden values and the prescribed interval state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Instance, IntervalState
from .validation import check_int, check_k, check_positive, check_probability


@dataclass(frozen=True)
class GapInstanceSpec:
    """Parameters of the gap-structured synthetic instance.

    ``eta`` defaults to ``gap / 2`` and ``near_ties`` to ``2 * k``; near-tie
    items split between the two boundary levels (at most ``k - 1`` on the top
    side, the rest at the bottom).  ``tail_fraction`` of the background forms
    the thinning slope on ``[bulk_band[1], anchor - 2 * eta]``; the rest is
    uniform on ``bulk_band``.
    """

    n: int
    k: int
    gap: float = 0.05
    anchor: float = 0.5
    eta: Optional[float] = None
    near_ties: Optional[int] = None
    tail_fraction: float = 0.35
    tail_margin: float = 0.02
    bulk_band: tuple[float, float] = (0.05, 0.12)
    top_high: float = 0.98
    seed: int = 0

    def resolved_eta(self) -> float:
        return 0.5 * self.gap if self.eta is None else float(self.eta)

    def resolved_near_ties(self) -> int:
        return 2 * self.k if self.near_ties is None else int(self.near_ties)


def generate_gap_instance(spec: GapInstanceSpec) -> Instance:
    """Deterministically generate an instance with a guaranteed boundary gap.

    Exactly k values exceed the anchor; the realized gap between the k-th and
    (k+1)-th values equals ``spec.gap``.
    """
    n = check_int(spec.n, "n", minimum=2)
    k = check_int(spec.k, "k")
    if not 1 <= k <= n - 1:
        raise ValueError(f"a gap instance needs 1 <= k <= n - 1 = {n - 1}, got k={k}")
    gap = check_positive(spec.gap, "gap")
    anchor = check_probability(spec.anchor, "anchor")
    eta = spec.resolved_eta()
    near_ties = check_int(spec.resolved_near_ties(), "near_ties", minimum=0)
    if eta < 0.5 * gap:
        raise ValueError("eta must be at least gap / 2")
    if not 0.0 < spec.tail_fraction <= 1.0 and spec.tail_fraction != 0.0:
        raise ValueError("tail_fraction must lie in [0, 1]")

    top_anchor = anchor + 0.5 * gap
    bottom_anchor = anchor - 0.5 * gap
    bulk_lo, bulk_hi = spec.bulk_band
    slope_hi = anchor - 2.0 * eta - spec.tail_margin
    if not 0.0 < bulk_lo < bulk_hi:
        raise ValueError("bulk_band must satisfy 0 < low < high")
    if bulk_hi >= slope_hi:
        raise ValueError(
            f"bulk_band upper edge {bulk_hi} must sit below the slope limit {slope_hi:.4f}"
        )
    if not anchor + eta <= spec.top_high <= 1.0:
        raise ValueError("top_high must lie in [anchor + eta, 1]")
    if bottom_anchor <= 0.0 or top_anchor >= 1.0:
        raise ValueError("gap band must fit inside (0, 1)")

    tie_top = min(near_ties // 2, k - 1)
    tie_bottom = min(near_ties - tie_top, n - k - 1)
    clear_top = k - 1 - tie_top
    background = n - k - 1 - tie_bottom
    n_slope = int(round(spec.tail_fraction * background))
    n_bulk = background - n_slope
    if clear_top > 0 and anchor + eta >= spec.top_high:
        raise ValueError("no room for clear top items: raise top_high or shrink eta")

    rng = np.random.default_rng(spec.seed)
    parts = [np.array([top_anchor]), np.array([bottom_anchor])]
    parts.append(rng.uniform(top_anchor, anchor + eta, size=tie_top))
    parts.append(rng.uniform(anchor + eta, spec.top_high, size=clear_top))
    parts.append(rng.uniform(anchor - eta, bottom_anchor, size=tie_bottom))
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
    spec: PackingSpec, target: Optional[Sequence[int]] = None, seed: Optional[int] = None
) -> tuple[Instance, IntervalState]:
    """Build the packing instance and its prescribed interval state.

    ``target`` picks which k packed items are the true top-k; when omitted it
    is drawn from ``seed`` (or defaults to the first k packed items).  The
    prescribed intervals cover the true values by construction and certify
    every item outside the packed set as OUT.
    """
    n, k, m = spec.n, spec.k, spec.m
    if target is None:
        if seed is None:
            target = np.arange(k)
        else:
            target = np.sort(np.random.default_rng(seed).choice(m, size=k, replace=False))
    target = np.asarray(sorted(int(x) for x in target), dtype=np.int64)
    if target.size != k or np.unique(target).size != k:
        raise ValueError(f"target must contain {k} distinct items")
    if target.size and (target[0] < 0 or target[-1] >= m):
        raise ValueError(f"target must be a subset of the packed set 0..{m - 1}")

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
