"""Top-k certification algorithms over a weak/strong oracle pair.

Five certifiers share one estimator-style interface: configure the
hyperparameters on the constructor, call ``fit(weak, strong)``, and read the
fitted ``selected_`` set and ``report_``.  ``get_params`` / ``set_params``
follow the scikit-learn convention so the certifiers compose with generic
tooling (cloning, grid drivers); plain functions wrapping each certifier are
exported as well.

* ``ScreenThenCertify`` -- one-shot screening: build weak intervals, certify
  clear items, strong-query the whole ambiguous set as one batch.
* ``AdaptiveCertify`` -- iteratively strong-query the more uncertain of the
  two critical items (worst tentative-in vs best tentative-out) until the
  top-k set is certified by interval dominance.
* ``AdaptiveCertifyWeak`` -- an adaptive weak phase first: concentrate weak
  pulls on the widest ambiguous interval under time-uniform confidence
  sequences, then run the adaptive strong phase on the frozen intervals.
* ``ThresholdCertify`` -- verify items in weak-estimate order with an
  early-stopping certificate from the weak upper bounds.
* ``BruteForceCertify`` -- strong-query everything; the reference oracle.

All tie-breaks (set membership, argmin/argmax, width comparisons) resolve by
ascending item index, so runs are exactly reproducible.
"""

from __future__ import annotations

import heapq
import inspect
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .confidence import CiMethod, DeltaBudget, build_fixed_intervals, ci_method_from_config
from .core import IntervalState, ambiguous_set, epsilon_max, kth_largest
from .validation import check_int, check_k


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one certification run.

    ``weak_state`` is the frozen weak-phase interval state (before any strong
    reveal); harness code uses it for coverage and near-tie diagnostics.
    """

    selected: tuple[int, ...]
    strong_calls: int
    weak_pulls: int
    ambiguous_initial: int
    ambiguous_final: int
    eps_max: float
    eps_max_ambiguous: float
    trace: tuple[int, ...]
    interval_conflicts: int
    weak_state: Optional[IntervalState]


def _ace_loop(state: IntervalState, k: int, strong) -> tuple[np.ndarray, list[int]]:
    """Adaptive strong-query loop on an interval state (mutated in place).

    Each iteration either certifies the optimistic top-k set or collapses the
    wider of the critical pair; every strong query lands on a distinct item,
    so the loop runs at most n iterations.

    The tentative-in set (the k largest upper bounds, ties to the lower index)
    is kept incrementally: a collapse only lowers one item's upper bound, so
    at most that item swaps places with the best tentative-out item.  The
    worst tentative-in item comes from a lazy heap of ``(lower, index)``.
    The best tentative-out item, by ``(-upper, index)``, is either the first
    one in the initial sort that still has its initial bound, or the top of a
    lazy heap of items that were queried or swapped out.  Stale entries are
    recognised because bounds only ever move inward.  Set-up costs one
    O(n log n) sort; each strong call costs O(log n).

    The loop reads and writes the bounds as Python floats in lists; each
    reveal is applied to them as ``collapse_to`` would apply it, and all
    reveals reach ``state`` at the end in one ``collapse_many``.
    """
    n = state.n
    trace: list[int] = []
    if k == n:
        return np.arange(n), trace
    order = np.lexsort((np.arange(n), -state.upper))
    lower, upper = state.lower.tolist(), state.upper.tolist()
    top = order[:k].tolist()
    inside = bytearray(n)
    for x in top:
        inside[x] = 1
    in_heap = [(lower[x], x) for x in top]
    heapq.heapify(in_heap)
    rest = order[k:].tolist()
    rest_upper = [upper[x] for x in rest]
    n_rest = len(rest)
    head = 0
    out_heap: list[tuple[float, int]] = []
    values: list[float] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    for _ in range(n + 1):
        while not (inside[in_heap[0][1]] and in_heap[0][0] == lower[in_heap[0][1]]):
            heappop(in_heap)
        # an item passed over here is inside, or was queried and so entered
        # out_heap whenever it is outside
        while head < n_rest and (inside[rest[head]] or upper[rest[head]] != rest_upper[head]):
            head += 1
        while out_heap and (inside[out_heap[0][1]] or out_heap[0][0] != -upper[out_heap[0][1]]):
            heappop(out_heap)
        i = in_heap[0][1]
        j = rest[head] if head < n_rest else out_heap[0][1]
        if out_heap and out_heap[0] < (-upper[j], j):
            j = out_heap[0][1]
        if lower[i] >= upper[j]:
            state.collapse_many(trace, values)
            return np.flatnonzero(np.frombuffer(inside, dtype=np.uint8)), trace
        x = i if (upper[i] - lower[i]) >= (upper[j] - lower[j]) else j
        value = strong.query(x)
        # collapse_to(x, value): the comparisons of intersect_update with
        # lower == upper == value, an empty intersection clamped to the
        # nearer old bound
        old_lo, old_hi = lower[x], upper[x]
        lo = old_lo if old_lo >= value else value
        hi = old_hi if old_hi <= value else value
        if lo > hi:
            lo = hi = old_hi if value > old_hi else old_lo
        if not (old_lo <= lo <= hi <= old_hi):
            raise ValueError(
                f"non-monotone update of item {x}: [{old_lo}, {old_hi}] -> [{lo}, {hi}]"
            )
        lower[x], upper[x] = lo, hi
        trace.append(x)
        values.append(value)
        if not inside[x]:
            heappush(out_heap, (-hi, x))
        elif (-hi, x) > (-upper[j], j):
            inside[x] = 0
            inside[j] = 1
            heappush(out_heap, (-hi, x))
            heappush(in_heap, (lower[j], j))
        else:
            heappush(in_heap, (lo, x))
    raise AssertionError("adaptive certification did not terminate")


class BaseCertifier:
    """Estimator-style base: constructor params + fit(weak, strong).

    ``_run`` is the one run template: resolve n and k, answer k == 0 or
    k == n without oracle access, run the weak phase (a uniform screen of
    ``n_weak`` pulls per item unless an initial state is given), then the
    subclass's ``_strong_phase`` on a copy of the weak state.
    """

    def __init__(
        self,
        k: int,
        delta: float = 0.05,
        n_weak: int = 12,
        ci_method: str | CiMethod = "subgaussian",
        ci_sigma: float = 0.1,
        ci_range: float = 1.0,
        delta_weak_fraction: float = 1.0,
    ):
        self.k = k
        self.delta = delta
        self.n_weak = n_weak
        self.ci_method = ci_method
        self.ci_sigma = ci_sigma
        self.ci_range = ci_range
        self.delta_weak_fraction = delta_weak_fraction

    def get_params(self, deep: bool = True) -> dict:
        params = inspect.signature(type(self).__init__).parameters
        return {name: getattr(self, name) for name in params if name != "self"}

    def set_params(self, **params) -> "BaseCertifier":
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def fit(self, weak, strong, initial_state: IntervalState | None = None) -> "BaseCertifier":
        """Run certification; fitted attributes are selected_ and report_."""
        report = self._run(weak, strong, initial_state)
        self.report_ = report
        self.selected_ = report.selected
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _run(self, weak, strong, initial_state) -> CertificationReport:
        n = initial_state.n if initial_state is not None else weak.n_items
        if strong is not None and strong.n_items != n:
            raise ValueError("weak and strong oracles disagree on the number of items")
        k = check_k(self.k, n, allow_zero=True)
        if k == 0 or k == n:
            # no oracle access: range(k) is every item or none
            state = IntervalState.full_range(n)
            return self._report(k, range(k), state, state, (), 0)
        pulls_before = 0 if weak is None else weak.total_pulls
        weak_state = self._weak_phase(weak, initial_state, n, k)
        weak_pulls = 0 if weak is None else weak.total_pulls - pulls_before
        work = weak_state.copy()
        selected, trace = self._strong_phase(work, k, strong)
        return self._report(k, selected, weak_state, work, trace, weak_pulls)

    def _method(self) -> CiMethod:
        if isinstance(self.ci_method, str):
            return ci_method_from_config(self.ci_method, self.ci_sigma, self.ci_range)
        return self.ci_method

    def _weak_phase(self, weak, initial_state, n: int, k: int) -> IntervalState:
        if initial_state is not None:
            return initial_state.copy()
        budget = DeltaBudget.split(self.delta, n, self.delta_weak_fraction)
        return build_fixed_intervals(weak, self.n_weak, budget, self._method())

    def _report(
        self,
        k: int,
        selected,
        weak_state: IntervalState,
        work: IntervalState,
        trace,
        weak_pulls: int,
    ) -> CertificationReport:
        amb0 = ambiguous_set(weak_state, k) if k >= 1 else np.zeros(0, dtype=np.int64)
        amb_final = ambiguous_set(work, k) if k >= 1 else np.zeros(0, dtype=np.int64)
        eps = epsilon_max(weak_state)
        return CertificationReport(
            selected=tuple(int(x) for x in np.sort(np.asarray(selected, dtype=np.int64))),
            strong_calls=len(trace),
            weak_pulls=int(weak_pulls),
            ambiguous_initial=int(amb0.size),
            ambiguous_final=int(amb_final.size),
            eps_max=eps,
            eps_max_ambiguous=epsilon_max(weak_state, amb0) if amb0.size else eps,
            trace=tuple(map(int, trace)),
            interval_conflicts=int(work.conflicts),
            weak_state=weak_state,
        )


class ScreenThenCertify(BaseCertifier):
    """One-shot screen-then-certify.

    Weak intervals partition items into clear IN (lower bound above the k-th
    largest upper bound), clear OUT (upper bound below the k-th largest lower
    bound) and the ambiguous rest, which is strong-queried in full, in one
    ``query_many`` batch.  Strong calls therefore equal the ambiguous-set size
    on every run.
    """

    def _strong_phase(self, work: IntervalState, k: int, strong):
        u_k = kth_largest(work.upper, k)
        clear_in = np.flatnonzero(work.lower > u_k)
        amb = ambiguous_set(work, k)
        trace = amb.tolist()
        revealed = strong.query_many(trace)
        work.collapse_many(amb, revealed)
        need = k - clear_in.size
        assert 1 <= need <= amb.size
        # amb is ascending, so the stable order breaks value ties by index
        chosen = amb[_leading(-revealed, need)]
        return np.concatenate([clear_in, chosen]), trace


class AdaptiveCertify(BaseCertifier):
    """Adaptive strong certification on fixed weak intervals.

    After the weak phase, repeatedly compare the worst tentative-in item
    (smallest lower bound among the k largest upper bounds) against the best
    tentative-out item (largest upper bound outside); collapse whichever of
    the two has the wider interval until dominance certifies the set.  Only
    initially ambiguous items can ever be queried, each at most once.  Past
    the weak phase, the strong loop costs one O(n log n) sort plus O(log n)
    per strong call.  The loop works on the bounds as Python floats and
    writes its reveals back to the interval state in one batch when it
    stops; the strong oracle is still called once per item, in trace order.
    """

    _strong_phase = staticmethod(_ace_loop)


class _KthLargestOfRising:
    """The exact k-th largest of values that only ever rise.

    Keeps the threshold and how many values lie strictly above it.  Only a
    rise across the threshold is counted, and only the one that brings that
    count to k moves the threshold (up to the smallest value above it), so
    only threshold moves rescan the values.
    """

    def __init__(self, values: np.ndarray, k: int):
        self.values = values
        self.k = k
        self.threshold = kth_largest(values, k)
        self.above = int(np.count_nonzero(values > self.threshold))

    def rise(self, x: int, old: float, new: float) -> float:
        """Record that values[x] rose from old to new; returns the threshold."""
        self.values[x] = new
        t = self.threshold
        if old <= t < new:
            self.above += 1
            if self.above == self.k:
                values = self.values
                t = float(np.min(values, where=values > t, initial=np.inf))
                self.threshold = t
                self.above = int(np.count_nonzero(values > t))
        return t


class AdaptiveCertifyWeak(AdaptiveCertify):
    """Two-phase fully adaptive certification.

    Phase I (adaptive weak allocation): warm-start every item with ``w_min``
    pulls under time-uniform confidence sequences, then spend the remaining
    weak budget one pull at a time on the ambiguous item with the widest
    interval (skipping items that reached ``w_max``).  Phase II freezes the
    intervals and runs the adaptive strong loop on them.

    Each adaptive pull costs O(log n): the widest ambiguous item comes from a
    heap, and the k-th largest lower and upper bounds that define the
    ambiguous set are tracked exactly, rescanning all n bounds only on the
    pulls that move one of them.
    """

    def __init__(
        self,
        k: int,
        delta: float = 0.05,
        weak_budget: int | None = None,
        w_min: int = 6,
        w_max: int | None = None,
        ci_method: str | CiMethod = "subgaussian",
        ci_sigma: float = 0.1,
        ci_range: float = 1.0,
        delta_weak_fraction: float = 1.0,
    ):
        self.k = k
        self.delta = delta
        self.weak_budget = weak_budget
        self.w_min = w_min
        self.w_max = w_max
        self.ci_method = ci_method
        self.ci_sigma = ci_sigma
        self.ci_range = ci_range
        self.delta_weak_fraction = delta_weak_fraction

    def _weak_phase(self, weak, initial_state, n: int, k: int) -> IntervalState:
        if initial_state is not None:
            raise ValueError("adaptive weak allocation requires live oracle access")
        w_min = check_int(self.w_min, "w_min", minimum=1)
        budget = check_int(
            self.weak_budget if self.weak_budget is not None else 12 * n,
            "weak_budget",
            minimum=1,
        )
        w_max = budget if self.w_max is None else check_int(self.w_max, "w_max", minimum=w_min)
        if budget < n * w_min:
            raise ValueError(f"weak_budget={budget} cannot warm-start {n} items with w_min={w_min}")
        return self._phase1(weak, n, k, w_min, w_max, budget)

    def _phase1(self, weak, n, k, w_min, w_max, budget) -> IntervalState:
        method = self._method()
        delta_x = DeltaBudget.split(self.delta, n, self.delta_weak_fraction).per_item

        means_arr, variances = weak.pull_all_moments(w_min, variance=w_min >= 2)
        if variances is None:
            variances = np.zeros(n)
        radii = method.batch_radius(w_min, variances, delta_x, anytime=True)
        lower_arr = np.clip(means_arr - radii, 0.0, 1.0)
        upper_arr = np.clip(means_arr + radii, 0.0, 1.0)
        lower = lower_arr.tolist()
        upper = upper_arr.tolist()
        means = means_arr.tolist()
        m2 = (variances * (w_min - 1)).tolist()
        counts = [w_min] * n
        budget_left = budget - n * w_min
        conflicts = 0
        # per pull count c, the (log term, offset) of the radius
        # sqrt(2 V L / c) + offset, memoised as the counts grow
        terms = [None]

        # Only the k-th largest bounds l_k and u_k are read.  -upper only
        # rises, and its (n - k + 1)-th largest is -u_k.
        kth_lower = _KthLargestOfRising(lower_arr.copy(), k)
        kth_neg_upper = _KthLargestOfRising(-upper_arr, n - k + 1)
        l_k, u_k = kth_lower.threshold, -kth_neg_upper.threshold
        # Items are pulled by ascending (lower - upper, index), from a heap
        # holding each as the int ((2**63 - bits(upper - lower)) << shift) |
        # index.  The bit pattern of a double >= 0 orders like the double, so
        # these ints order like the pairs; an int is smaller and faster to
        # compare than a tuple.  l_k only rises and u_k only falls, so an item
        # that is clear once stays clear: it starts outside the heap, or
        # leaves it at the top.
        shift = n.bit_length()
        index_mask = (1 << shift) - 1
        live = np.flatnonzero((lower_arr <= u_k) & (upper_arr >= l_k))
        if w_min == w_max:
            live = live[:0]
        width_bits = (upper_arr[live] - lower_arr[live]).view(np.int64).tolist()
        heap = [(((1 << 63) - b) << shift) | x for b, x in zip(width_bits, live.tolist())]
        heapq.heapify(heap)
        pack_double, unpack_int = struct.Struct("<d").pack, struct.Struct("<q").unpack
        pull = weak.pull
        heappop, heapreplace = heapq.heappop, heapq.heapreplace

        while budget_left > 0:
            while heap:
                x = heap[0] & index_mask
                if lower[x] <= u_k and upper[x] >= l_k:
                    break
                heappop(heap)
            else:
                break

            value = pull(x)
            c = counts[x] + 1
            counts[x] = c
            mu = means[x]
            d = value - mu
            mu += d / c
            means[x] = mu
            m2x = m2[x] + d * (value - mu)
            m2[x] = m2x
            if c >= len(terms):
                terms.extend(method.terms(cc, delta_x, True) for cc in range(len(terms), 2 * c))
            log_term, offset = terms[c]
            # a sub-Gaussian radius has no variance term; skip its arithmetic
            r = math.sqrt(2.0 * (m2x / (c - 1)) * log_term / c) + offset if log_term else offset
            new_lo = mu - r
            new_hi = mu + r
            if new_lo < 0.0:
                new_lo = 0.0
            if new_hi > 1.0:
                new_hi = 1.0
            old_lo = lower[x]
            old_hi = upper[x]
            lo = old_lo if old_lo >= new_lo else new_lo
            hi = old_hi if old_hi <= new_hi else new_hi
            if lo > hi:
                lo = hi = old_hi if new_lo > old_hi else old_lo
                conflicts += 1
            budget_left -= 1
            if lo == old_lo and hi == old_hi and c < w_max:
                # x's interval, and so its key, l_k and u_k, are unchanged:
                # x is still live and still on top of the heap
                continue
            if lo != old_lo:
                l_k = kth_lower.rise(x, old_lo, lo)
                lower[x] = lo
            if hi != old_hi:
                u_k = -kth_neg_upper.rise(x, -old_hi, -hi)
                upper[x] = hi
            if c < w_max:
                bits = unpack_int(pack_double(hi - lo))[0]
                heapreplace(heap, (((1 << 63) - bits) << shift) | x)
            else:
                heappop(heap)

        state = IntervalState.from_bounds(lower, upper, pulls=counts, means=means)
        state.conflicts = conflicts
        return state


def _by_estimate(work: IntervalState, k: int):
    """Items by descending weak point estimate, equal estimates by ascending
    index, each paired with the largest weak upper bound among the items after it.

    The order is selected a leading block at a time, the block doubling each
    time the caller reads past it, so a caller that stops early never pays
    for a full sort.
    """
    n = work.n
    keys = -work.point_estimates()
    done, size = 0, min(n, 2 * k)
    while done < n:
        order = _leading(keys, size)
        upper = work.upper[order]
        if size < n:
            rest = np.ones(n, dtype=bool)
            rest[order] = False
            rest_upper = work.upper[rest].max()
        else:
            rest_upper = -np.inf
        later = np.empty(size)
        later[-1] = rest_upper
        np.maximum(np.maximum.accumulate(upper[:0:-1])[::-1], rest_upper, out=later[:-1])
        yield from zip(order[done:].tolist(), later[done:].tolist())
        done, size = size, min(n, 2 * size)


def _leading(keys: np.ndarray, size: int) -> np.ndarray:
    """The first `size` indices of the stable ascending order of `keys`."""
    if size < keys.size:
        cut = np.partition(keys, size - 1)[size - 1]
        # NaN sorts last and equals nothing; a NaN cut falls back to sorting
        if cut == cut:
            below = np.flatnonzero(keys < cut)
            tied = np.flatnonzero(keys == cut)[: size - below.size]
            chosen = np.sort(np.concatenate([below, tied]))
            return chosen[np.argsort(keys[chosen], kind="stable")]
    return np.argsort(keys, kind="stable")[:size]


class ThresholdCertify(BaseCertifier):
    """Verify items in weak-estimate order with an early-stopping certificate.

    Items are strong-queried by descending weak point estimate.  Once k items
    are verified, stop as soon as the k-th largest verified value is at least
    the largest weak upper bound among unverified items; those can then never
    belong to the top-k.
    """

    def _strong_phase(self, work: IntervalState, k: int, strong):
        trace: list[int] = []
        values: list[float] = []
        top_heap: list[float] = []
        for x, later_upper in _by_estimate(work, k):
            value = strong.query(x)
            trace.append(x)
            values.append(value)
            heapq.heappush(top_heap, value)
            if len(top_heap) > k:
                heapq.heappop(top_heap)
            if len(top_heap) == k and top_heap[0] >= later_upper:
                break
        verified = np.asarray(trace, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        work.collapse_many(verified, vals)
        return verified[np.lexsort((verified, -vals))[:k]], trace


class BruteForceCertify(BaseCertifier):
    """Strong-query every item; the exact reference certifier."""

    def __init__(self, k: int):
        self.k = k

    def _run(self, weak, strong, initial_state) -> CertificationReport:
        n = strong.n_items
        k = check_k(self.k, n, allow_zero=True)
        trace = list(range(n))
        values = strong.query_many(trace)
        state = IntervalState.from_bounds(values, values, means=values)
        state.collapsed[:] = True
        selected = np.lexsort((np.arange(n), -values))[:k]
        return self._report(k, selected, state, state, trace, 0)


ALGORITHMS: dict[str, type[BaseCertifier]] = {
    "stc": ScreenThenCertify,
    "ace": AdaptiveCertify,
    "ace_w": AdaptiveCertifyWeak,
    "ta": ThresholdCertify,
    "brute": BruteForceCertify,
}


def _fit_report(cls, weak, strong, k, params) -> CertificationReport:
    initial_state = params.pop("initial_state", None)
    return cls(k, **params).fit(weak, strong, initial_state).report_


def stc(weak, strong, k, **params) -> CertificationReport:
    """One-shot screen-then-certify; see :class:`ScreenThenCertify`."""
    return _fit_report(ScreenThenCertify, weak, strong, k, params)


def ace(weak, strong, k, **params) -> CertificationReport:
    """Adaptive strong certification; see :class:`AdaptiveCertify`."""
    return _fit_report(AdaptiveCertify, weak, strong, k, params)


def ace_w(weak, strong, k, **params) -> CertificationReport:
    """Fully adaptive two-phase certification; see :class:`AdaptiveCertifyWeak`."""
    return _fit_report(AdaptiveCertifyWeak, weak, strong, k, params)


def ta_certify(weak, strong, k, **params) -> CertificationReport:
    """Sorted verification with weak-interval stopping; see :class:`ThresholdCertify`."""
    return _fit_report(ThresholdCertify, weak, strong, k, params)


def brute_force_certify(strong, k) -> CertificationReport:
    """Strong-query all items; see :class:`BruteForceCertify`."""
    return BruteForceCertify(k).fit(None, strong).report_
