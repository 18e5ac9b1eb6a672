"""Top-k certification algorithms over a weak/strong oracle pair.

Five certifiers share one interface: configure the hyperparameters on the
constructor, call ``fit(weak, strong, initial_state=None)``, and read the
fitted ``report_``.  ``ALGORITHMS`` maps each short name to its class.

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
ascending item index, so runs are exactly reproducible; every order by key
that breaks ties this way comes from ``core._stable_argsort``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .confidence import CiMethod, build_fixed_intervals, ci_method_from_config
from .core import (
    _SAMPLE,
    _SAMPLE_FROM,
    IntervalState,
    _check_state,
    _guess_rank,
    _stable_argsort,
    ambiguous_band,
    ambiguous_set,
    epsilon_max,
    kth_largest,
)
from .oracles import StrongOracle
from .validation import check_int, check_k, check_probability


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of one certification run.

    ``weak_state`` is the weak-phase interval state (before any strong
    reveal); harness code uses it for coverage and near-tie diagnostics.
    Like every state it is read-only: an ``initial_state`` run reports the
    caller's own state, and the certifiers screening one block of pulls
    report the same state.  ``trace`` holds the strong queries in order;
    against a plain ``StrongOracle`` its ints are the very objects of the
    oracle's trace.
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
    weak_state: IntervalState


def _ace_loop(state: IntervalState, k: int, strong) -> tuple[np.ndarray, list[int], list[float]]:
    """Adaptive strong-query loop on an interval state, which it only reads,
    for 0 < k < n; returns the selected items, the queried items and their values.

    Each iteration either certifies the optimistic top-k set or collapses the
    wider of the critical pair; every strong query lands on a distinct item,
    so the loop runs at most |A0| iterations.

    Only the items of the initial ambiguous set A0 take part.  A clear-in
    item (lower > U_(k)) is in every tentative-in set and a clear-out item
    (upper < L_(k)) in every tentative-out set; either one is critical only
    at a step where the loop over all n items certifies anyway, as fewer than
    k upper bounds exceed U_(k) and at least k lower bounds reach L_(k).  So
    the loop runs over A0 with k - |clear-in| places, and clear-in joins its
    selection; with no tentative-out item in A0 it certifies at once.

    The tentative-in set (the largest upper bounds, ties to the lower index)
    is kept incrementally: a collapse only lowers one item's upper bound, so
    at most that item swaps places with the best tentative-out item.  The
    worst tentative-in item comes from a lazy heap of ``(lower, index)``.
    The best tentative-out item, by ``(-upper, index)``, is either the first
    one in the initial sort that was never queried, and so still has its
    initial bound, or the top of a lazy heap of items that were queried or
    swapped out.  Stale entries are recognised because bounds only ever move
    inward.  Set-up costs O(n) on the state's cached band and one
    O(|A0| log |A0|) sort; each strong call costs O(log |A0|).

    The loop reads and writes the bounds as Python floats in lists; a reveal
    collapses an interval onto its value clipped to it, as in ``_report``.
    """
    amb, _, clear_in = ambiguous_band(state, k)
    need = k - clear_in.size
    if need == amb.size:
        # no tentative-out item in A0: every other item is clear-out
        return np.sort(np.concatenate([clear_in, amb])), [], []
    trace: list[int] = []
    values: list[float] = []
    # the loop runs on positions in A0, which is ascending, so ties between
    # positions go to the lower item
    lower, upper = state.lower[amb], state.upper[amb]
    order = _stable_argsort(-upper)
    lower, upper, ids = lower.tolist(), upper.tolist(), amb.tolist()
    top = order[:need].tolist()
    inside = bytearray(amb.size)
    queried = bytearray(amb.size)
    for x in top:
        inside[x] = 1
    in_heap = [(lower[x], x) for x in top]
    heapq.heapify(in_heap)
    rest = order[need:].tolist()
    n_rest = len(rest)
    head = 0
    out_heap: list[tuple[float, int]] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    for _ in range(amb.size + 1):
        while not (inside[in_heap[0][1]] and in_heap[0][0] == lower[in_heap[0][1]]):
            heappop(in_heap)
        # an item passed over here is inside, or was queried and so entered
        # out_heap whenever it is outside
        while head < n_rest and (inside[rest[head]] or queried[rest[head]]):
            head += 1
        while out_heap and (inside[out_heap[0][1]] or out_heap[0][0] != -upper[out_heap[0][1]]):
            heappop(out_heap)
        i = in_heap[0][1]
        j = rest[head] if head < n_rest else out_heap[0][1]
        if out_heap and out_heap[0] < (-upper[j], j):
            j = out_heap[0][1]
        if lower[i] >= upper[j]:
            chosen = amb[np.frombuffer(inside, dtype=bool)]
            return np.sort(np.concatenate([clear_in, chosen])), trace, values
        x = i if (upper[i] - lower[i]) >= (upper[j] - lower[j]) else j
        item = ids[x]
        value = strong.query(item)
        lo, hi = lower[x], upper[x]
        point = lo if value < lo else hi if value > hi else value
        if point != point:
            raise _nan_reveal(item, lo, hi)
        lower[x] = upper[x] = point
        queried[x] = 1
        trace.append(item)
        values.append(value)
        if not inside[x]:
            heappush(out_heap, (-point, x))
        elif (-point, x) > (-upper[j], j):
            inside[x] = 0
            inside[j] = 1
            heappush(out_heap, (-point, x))
            heappush(in_heap, (lower[j], j))
        else:
            heappush(in_heap, (point, x))
    raise AssertionError("adaptive certification did not terminate")


def _nan_reveal(x, lo, hi) -> ValueError:
    """The error of a NaN strong value at item x of weak interval [lo, hi]."""
    return ValueError(f"non-monotone update of item {x}: [{lo}, {hi}] -> [nan, nan]")


def _ambiguous_after(weak_state: IntervalState, k: int, items, points) -> int:
    """The ambiguous set's size once each of `items` collapsed onto its
    point, its value clipped to its weak interval, for 1 <= k <= n.

    Collapses only shrink intervals: clear-in items stay above U_(k) and
    clear-out items below L_(k).  As fewer than k upper bounds exceed U_(k)
    and at least k lower bounds reach L_(k), the final k-th largest bounds
    are A0's (k - |clear-in|)-th, and A0's ambiguous set for them is final.
    """
    amb, _, clear_in = ambiguous_band(weak_state, k)
    # 1 marks an item of A0, 2 a revealed one (faster than searching A0)
    mark = np.zeros(weak_state.n, dtype=np.int8)
    mark[amb] = 1
    mark[items] += 2
    kept, inside = amb[mark[amb] == 1], points[mark[items] == 3]
    lower = np.concatenate([weak_state.lower[kept], inside])
    upper = np.concatenate([weak_state.upper[kept], inside])
    final = IntervalState(lower, upper, np.zeros(lower.size, dtype=np.int64))
    return int(ambiguous_set(final, k - clear_in.size).size)


class BaseCertifier:
    """Base of the certifiers: constructor params + fit(weak, strong), which
    sets ``report_``; the repr lists the constructor params.

    ``_run`` is the one run template: resolve n and k, answer k == 0 or
    k == n without oracle access, run the weak phase (a uniform screen of
    ``n_weak`` pulls per item unless an initial state is given), then the
    subclass's ``_strong_phase``, which reads the weak state and returns the
    selected set, the queried items and their values; ``_report`` counts
    from the weak state and those reveals.  A caller's ``initial_state`` is
    checked as the ``IntervalState`` constructor checks its arrays, whose
    flags a caller can make writable again, before any oracle call.
    """

    def __init__(
        self,
        k: int,
        delta: float = 0.05,
        n_weak: int = 12,
        ci_method: str = "subgaussian",
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

    def fit(self, weak, strong, initial_state: IntervalState | None = None) -> "BaseCertifier":
        """Run certification; the fitted attribute is report_."""
        self.report_ = self._run(weak, strong, initial_state)
        return self

    def __repr__(self) -> str:
        # the constructor parameters, in the order __init__ assigns them
        args = ", ".join(f"{k}={v!r}" for k, v in vars(self).items() if not k.endswith("_"))
        return f"{type(self).__name__}({args})"

    def _run(self, weak, strong, initial_state) -> CertificationReport:
        if initial_state is not None:
            _check_state(initial_state)
        elif weak is None:
            raise ValueError("certifying needs a weak oracle or an initial_state, got None")
        n = initial_state.n if initial_state is not None else weak.n_items
        if strong is not None and strong.n_items != n:
            raise ValueError("weak and strong oracles disagree on the number of items")
        k = check_k(self.k, n, allow_zero=True)
        if k == 0 or k == n:
            # no oracle access: range(k) is every item or none
            return self._report(k, range(k), IntervalState.full_range(n), (), (), (), 0)
        if strong is None:
            raise ValueError("certifying 0 < k < n needs a strong oracle, got None")
        pulls_before = 0 if weak is None else weak.total_pulls
        weak_state = self._weak_phase(weak, initial_state, n, k)
        weak_pulls = 0 if weak is None else weak.total_pulls - pulls_before
        # the plain StrongOracle traces each query as the int the report keeps
        cls = type(strong)
        traced = cls.query is StrongOracle.query and cls.query_many is StrongOracle.query_many
        before = len(strong.trace) if traced else 0
        selected, items, values = self._strong_phase(weak_state, k, strong)
        if traced:
            # the very ints the oracle holds, rather than a second set of them
            # (stc queries 281k items at n = 1e6, about 9 MB of ints)
            trace = tuple(strong.trace[before:])
        else:
            trace = tuple(np.asarray(items, dtype=np.int64).tolist())
        return self._report(k, selected, weak_state, items, values, trace, weak_pulls)

    def _method(self) -> CiMethod:
        return ci_method_from_config(self.ci_method, self.ci_sigma, self.ci_range)

    def _delta_x(self, n: int) -> float:
        """The per-item failure probability: the strong oracle is exact, so
        the weak share of delta is split evenly over the n items."""
        delta = check_probability(self.delta, "delta")
        if not 0.0 < self.delta_weak_fraction <= 1.0:
            raise ValueError("delta_weak_fraction must lie in (0, 1]")
        return delta * self.delta_weak_fraction / n

    def _weak_phase(self, weak, initial_state, n: int, k: int) -> IntervalState:
        if initial_state is not None:
            return initial_state
        return build_fixed_intervals(weak, self.n_weak, self._delta_x(n), self._method())

    def _report(
        self, k: int, selected, weak_state: IntervalState, items, values, trace, weak_pulls: int
    ) -> CertificationReport:
        """The report of a run that revealed `values` at distinct `items`: each
        clipped to its weak interval, a conflict where that moves it; NaN raises."""
        items, values = np.asarray(items, dtype=np.int64), np.asarray(values, dtype=np.float64)
        lower, upper = weak_state.lower[items], weak_state.upper[items]
        points = np.clip(values, lower, upper)
        nan = np.isnan(values)
        if nan.any():
            at = int(np.argmax(nan))
            raise _nan_reveal(items[at], lower[at], upper[at])
        amb0 = ambiguous_set(weak_state, k) if k >= 1 else np.zeros(0, dtype=np.int64)
        eps = epsilon_max(weak_state)
        return CertificationReport(
            selected=tuple(np.sort(np.asarray(selected, dtype=np.int64)).tolist()),
            strong_calls=len(trace),
            weak_pulls=int(weak_pulls),
            ambiguous_initial=int(amb0.size),
            ambiguous_final=_ambiguous_after(weak_state, k, items, points) if k >= 1 else 0,
            eps_max=eps,
            eps_max_ambiguous=epsilon_max(weak_state, amb0) if amb0.size else eps,
            trace=trace,
            interval_conflicts=weak_state.conflicts + int(np.count_nonzero(points != values)),
            weak_state=weak_state,
        )


class ScreenThenCertify(BaseCertifier):
    """One-shot screen-then-certify.

    Weak intervals partition items into clear IN (lower bound above the k-th
    largest upper bound), clear OUT (upper bound below the k-th largest lower
    bound) and the ambiguous rest, which is strong-queried in full: the
    oracle gets the ambiguous set A0 as one array, in one ``query_many`` call.
    Strong calls therefore equal the ambiguous-set size on every run.  The
    ambiguous set and the k-th largest upper bound are those of the weak
    state, which a shared screen holds already.
    """

    def _strong_phase(self, weak_state: IntervalState, k: int, strong):
        amb, _, clear_in = ambiguous_band(weak_state, k)
        revealed = strong.query_many(amb)
        need = k - clear_in.size
        assert 1 <= need <= amb.size
        # amb is ascending, so value ties at the cut go to the lower item
        chosen = amb[_smallest(-revealed, need)]
        return np.concatenate([clear_in, chosen]), amb, revealed


class AdaptiveCertify(BaseCertifier):
    """Adaptive strong certification on fixed weak intervals.

    After the weak phase, repeatedly compare the worst tentative-in item
    (smallest lower bound among the k largest upper bounds) against the best
    tentative-out item (largest upper bound outside); collapse whichever of
    the two has the wider interval until dominance certifies the set.  Only
    initially ambiguous items can ever be queried, each at most once, so the
    loop works on A0 alone.  Past the weak phase, the strong loop costs O(n)
    on the state's cached ambiguous band, one O(|A0| log |A0|) sort, and
    O(log |A0|) per strong call.  The loop works on the bounds as Python
    floats; the strong oracle is called once per item, in trace order.
    """

    def _strong_phase(self, weak_state: IntervalState, k: int, strong):
        return _ace_loop(weak_state, k, strong)


class _KthLargestOfRising:
    """The exact k-th largest of values that only ever rise, fed batches of
    rises, each with a probe to test against the threshold before it.

    Keeps the threshold and how many values lie strictly above it.  Only a
    rise across the threshold is counted, and only the one that brings that
    count to k moves the threshold, up to the smallest value above it.  Every
    threshold of a batch lies between the one before it, t, and the k-th
    largest after it, so a probe below t or at or above that is decided
    without knowing which.  Only the probes in between are in doubt, and only
    the rises before the last of them are replayed, one by one: those that
    start at or below the k-th largest after the batch and end above t, the
    only ones that can cross.  The smallest values above the threshold are
    found on one sorted walk over every value an item holds in that band
    until then.  The batch is applied to a copy of the values, which then
    replaces them.
    """

    def __init__(self, values: np.ndarray, k: int):
        self.values = values
        self.k = k
        self.threshold = kth_largest(values, k)
        self.above = int(np.count_nonzero(values > self.threshold))

    def rise_many(self, items, old, new, probes) -> np.ndarray:
        """Record that values[items[i]] rose from old[i] to new[i], for each i
        in order; returns whether probes[i] reaches (>=) the threshold in
        force before rise i, for each i."""
        values, k, t = self.values, self.k, self.threshold
        if not items.size:
            return np.zeros(0, dtype=bool)
        final = values.copy()
        # an item's rises arrive in order, so its last one is its largest
        np.maximum.at(final, items, new)
        # the k-th largest after the batch, for a k past half as the mirrored
        # (n - k + 1)-th largest, which kth_largest cuts from a sample instead
        # of partitioning all n; it feeds only comparisons, so the sign of a
        # zero does not matter
        n = final.size
        after = kth_largest(final, k) if 2 * k <= n else -kth_largest(-final, n - k + 1)
        reached = probes >= after
        doubt = np.flatnonzero((probes >= t) & ~reached)
        if doubt.size:
            # the threshold before rise `last` depends on the rises before it
            last = int(doubt[-1])
            old, new = old[:last], new[:last]
            hits = np.flatnonzero((old <= after) & (new > t))
            # each value an item holds in (t, after] until then, once: its
            # value before the batch or the end of a strict rise
            band = np.flatnonzero((values > t) & (values <= after))
            ends = np.flatnonzero((new > t) & (new <= after) & (old < new))
            ladder = np.concatenate([values[band], new[ends]])
            holders = np.concatenate([band, items[ends]])
            by_value = np.argsort(ladder)
            ladder, holders = ladder[by_value].tolist(), holders[by_value].tolist()
            step = 0
            starts, thresholds = [0], [t]
            above = self.above
            for i, x, low, high in zip(
                hits.tolist(), items[hits].tolist(), old[hits].tolist(), new[hits].tolist()
            ):
                values[x] = high
                if low <= t < high:
                    above += 1
                    if above == k:
                        # the smallest value above t, skipping entries whose
                        # item does not hold that value now, and how many
                        # items hold it
                        while ladder[step] <= t or values.item(holders[step]) != ladder[step]:
                            step += 1
                        t, held = ladder[step], 0
                        while step < len(ladder) and ladder[step] == t:
                            held += values.item(holders[step]) == t
                            step += 1
                        above = k - held
                        starts.append(i + 1)
                        thresholds.append(t)
            # the threshold before each doubtful rise
            before = np.asarray(thresholds)[np.searchsorted(starts, doubt, side="right") - 1]
            reached[doubt] = probes[doubt] >= before
        self.values, self.threshold = final, after
        self.above = int(np.count_nonzero(final > after))
        return reached


class _WeakPlan:
    """ACE-W's adaptive weak allocation, planned and pulled a level at a time.

    The allocation pulls, one at a time, the live item with the widest
    interval, ties to the lower index, until the budget is spent.  An item is
    live while it is ambiguous (lower <= u_k and upper >= l_k, the k-th largest
    bounds) and below ``w_max`` pulls.  Three facts let the pull sequence be
    computed for many pulls at once, bit for bit:

    - Bounds only move inward, so an item's width never rises.  The sequence
      is therefore the merge, by (-width, index), of per-item trajectories
      whose every step depends on the item's own draws alone: a column of
      steps is one numpy pass over many items with the same float operations
      in the same order as a scalar step.
    - An item that is not ambiguous lies strictly on one side of both l_k and
      u_k and keeps doing so, so its later bounds move neither.  l_k and u_k
      along the merged order can therefore be computed as if every step
      applied, and an item's steps are live exactly while their before-bounds
      pass the ambiguity test against them.
    - l_k and u_k are k-th largest of values that only rise (lower, and
      -upper), kept by ``_KthLargestOfRising`` over the batch.  Within a
      level each moves one way only, between its value before the level and
      its value after it, so a step whose bound lies outside that range is
      live or dead whichever value it meets; the tracker replays the merge
      only as far as the last step in between.

    A level previews the steps of some live items (``_walk``, or ``_rows``
    for a few), then merges and charges them (``_commit``).  Its frontier is
    the smallest key of a step not previewed that may still be pulled: every
    step below it is final, and is checked for liveness and the budget and
    charged through one ``WeakOracle._charge``.  The steps above it are
    carried to the next level with their draws, bounds, moments and conflict
    flags, and an item walks on from the end of its carried steps, so no step
    is previewed twice.  A step depends only on its item's draws and its
    bounds before it, so a carried step is the one a fresh preview would
    compute, bit for bit.  A carried step whose bounds before it are no
    longer ambiguous is dead, with every later step of its item, and is
    dropped: l_k only rises and u_k only falls.  Dropping all of an item's
    carried steps only means they are previewed again.  So how far each item
    is previewed decides only the cost, never the result:

    - Most levels take the ``m`` live items with the smallest keys, each
      until its key passes the next item's, so that level's steps all lie
      below the frontier.  ``m`` is sized by steps and by items: it aims at
      ``target`` steps from the steps per item the last level previewed,
      unless a cap cut it short, and while the budget lasts it is at least
      ``WIDTH``, with the steps aimed at and the cap raised to match.  A
      numpy column of the walk costs the same few dozen calls however many
      items it holds, so items that each run for many steps are walked many
      at a time.  Only these items' carried steps, and the next item's, can
      lie below the frontier, so only they are merged; the rest wait, in
      (item, count) order.
    - When ``m`` covers every live item, each passes the narrowest key and
      takes ``extra`` more steps, its carried steps included, keeping items
      that step in turn in step.
    - Items tied at the narrowest width (a run at width 1 or 0 may never
      end) are left to later levels, and an item whose run kept the last
      level from committing much is previewed alone.  That level's per-item
      estimate was far too low, so it walked far more items than later
      levels will take: it carries the steps of its ``WIDTH`` leading items
      only.

    A level takes its items as a set (``_smallest``): only its leading item,
    the limit, and the ``WIDTH`` leading items of a level previewed alone
    depend on the order of their keys, and ``_commit`` orders the steps.

    A level holds one copy of its steps: ``_walk`` assembles its columns
    once, the carried steps first, freeing each column once copied, and
    ``_commit`` splits off the steps above the frontier and frees the
    level's columns before it charges.  The library's own oracle charges a
    level by stream position, without drawing it again; a source that
    overrides ``pull`` or ``pull_many`` is pulled, and its values are
    compared with the planned draws bit for bit.
    """

    # steps a level aims at (n / 4 at large n), and the active sets walked
    # row by row in scalar floats, where a numpy column costs more than a
    # scalar step for each item
    TARGET = 8192
    NARROW = 32
    # the fewest items a level of some live items takes
    WIDTH = 16 * NARROW

    def __init__(self, weak, method, delta_x, k, w_min, w_max, lower, upper, means, m2):
        n = lower.size
        self.weak, self.method, self.delta_x, self.w_max = weak, method, delta_x, w_max
        self.lower, self.upper, self.means, self.m2 = lower, upper, means, m2
        self.counts = np.full(n, w_min, dtype=np.int64)
        # an item's next pull reads its stream at position base + its count
        self.base = int(weak.pulls_per_item[0]) - w_min
        self.conflicts = 0
        self.kth_lower = _KthLargestOfRising(lower.copy(), k)
        # -upper only rises, and its (n - k + 1)-th largest is -u_k
        self.kth_neg_upper = _KthLargestOfRising(-upper, n - k + 1)
        # per pull count c, the (log term, offset) of the radius
        # sqrt(2 V L / c) + offset; sub-Gaussian radii have no variance term
        self.log_terms, self.offsets = [0.0], [0.0]
        self.log_array, self.offset_array = np.zeros(1), np.zeros(1)
        self.reads_variance = method.reads_variance
        self.target = max(self.TARGET, n // 4)

    def _cover(self, top: int) -> None:
        """Extend the radius terms to pull counts up to `top`."""
        log_terms, offsets = self.method.anytime_terms(len(self.offsets), top, self.delta_x)
        self.log_terms += log_terms
        self.offsets += offsets

    def _tables(self, top: int) -> tuple[np.ndarray, np.ndarray]:
        """The radius terms as arrays over pull counts up to at least `top`."""
        if top >= self.offset_array.size:
            self._cover(max(2 * self.offset_array.size, top))
            self.log_array = np.array(self.log_terms)
            self.offset_array = np.array(self.offsets)
        return self.log_array, self.offset_array

    def run(self, budget_left: int) -> None:
        """Spend `budget_left` adaptive pulls, a level at a time."""
        live = np.arange(self.lower.size)
        target = self.target
        per_item, alone = 1.0, False
        carried = _no_steps()
        while budget_left > 0:
            l_k, u_k = self.kth_lower.threshold, -self.kth_neg_upper.threshold
            lower, upper = self.lower[live], self.upper[live]
            keep = (lower <= u_k) & (upper >= l_k) & (self.counts[live] < self.w_max)
            live = live[keep]
            if not live.size:
                break
            widths = upper[keep] - lower[keep]
            cap = min(2 * target, max(64, 2 * budget_left))
            m = 1 if alone else int(max(1, min(target, cap, budget_left * per_item) // per_item))
            extra = 0
            if m >= live.size:
                # all of them: unless items tie at the narrowest width, where
                # a run may never end, each passes the narrowest key and then
                # takes `extra` more steps
                tied = int(np.count_nonzero(widths == widths.min()))
                extra = min(target, cap) // live.size - 1 if tied == 1 else 0
                m = live.size if extra > 0 else max(1, live.size - tied)
            elif not alone:
                # some of them: at least WIDTH while the budget lasts, so that
                # a column of the walk holds enough items to pay for its numpy
                # calls; the steps aimed at, and the cap, rise to match
                aim = max(target, min(int(self.WIDTH * per_item), budget_left))
                cap = min(2 * aim, max(64, 2 * budget_left))
                m = min(live.size - 1, int(max(1, min(aim, cap, budget_left * per_item) // per_item)))
            # the m widest, each until its key passes the next one's, as a
            # set: live is ascending, so the largest key (-width, item) of the
            # m + 1 smallest is the last of their narrowest, and the leading
            # item the first of their widest; with all of them walked, the
            # narrowest is walked too
            lead = _smallest(-widths, m + 1)
            lead_w = widths[lead]
            bound = lead[lead_w == lead_w.min()].max()
            first = int(live[lead[lead_w == lead_w.max()].min()])
            limit = (float(widths[bound]), int(live[bound]))
            # any other item's carried steps lie above the limit's key
            mine, rest = _split(carried, live[lead], self.lower.size)
            del carried
            if m < live.size:
                ahead = lead != bound
                lead, lead_w = lead[ahead], lead_w[ahead]
            active = live[lead]
            steps, walked, stop_w, stop_x, short = self._walk(
                active, limit, extra, cap, budget_left, per_item, l_k, u_k, mine
            )
            del mine
            if m < live.size:
                stop_w, stop_x = np.append(stop_w, limit[0]), np.append(stop_x, limit[1])
            frontier = _widest(stop_w, stop_x) if stop_x.size else None
            previewed = steps[0].size
            # _commit empties `steps`, freeing the level before the next one
            kept, budget_left, above = self._commit(steps, frontier, budget_left)
            # a level cut short leaves its surplus carried, not lost, so the
            # estimate it would give (too high) is not taken
            per_item = per_item if short else max(1.0, walked / m)
            alone = short and frontier[1] == first and 2 * kept < previewed
            if alone:
                # its estimate was far too low, so it walked far more items
                # than later levels will take: keep the steps of the WIDTH
                # leading ones, which the level after next takes first (lead
                # is in no order, so it is put in item order for the ties)
                by_item = np.argsort(lead)
                leading = active[by_item[_smallest(-lead_w[by_item], self.WIDTH)]]
                above = _split(above, leading, self.lower.size)[0]
            if budget_left:
                carried = self._carry(rest, above)
            del rest, above

    def _walk(self, active, limit, extra, cap, budget, per_item, l_k, u_k, carried):
        """Preview the steps of the items `active`, in any order, that follow
        the steps `carried` holds for them: each item steps until its key
        (-width, item) passes `limit` and then `extra` more times, for `cap`
        steps in all.  An item stops early at w_max, once its bounds clear the
        current l_k or u_k (it is dead from then on), or, among several, at
        width zero (its key can never grow).  No item takes more than `budget`
        steps.  An item whose carried steps already pass `limit` takes none.

        Returns the level's steps, the carried ones first, as one list of
        columns (item, count, bounds before, bounds after, mean, m2, draw,
        whether it conflicts); how many of them are new; the next width and
        the index of each item that may still be pulled after its last step;
        and whether an item stopped short of `limit`.
        """
        w_lim, x_lim = limit
        w_max = self.w_max
        x = active
        lo, hi, mu, m2 = self.lower[x], self.upper[x], self.means[x], self.m2[x]
        c = self.counts[x]
        # an item's key is below the limit while its width is above its bar
        edge = np.nextafter(w_lim, -np.inf)
        bar = np.where(x < x_lim, edge, w_lim)
        parts: list[tuple] = []
        stops: list[tuple] = []
        # steps left once past the limit; -1 before
        left = np.where(x == x_lim, extra, -1) if extra else None
        held = carried[0]
        if held.size:
            # carried steps are by (item, count), so an item's are one run,
            # whose last step ends its trajectory: the item walks on from
            # there, and stops there if the run passed the limit (and, with
            # `extra`, took that many steps past it) or ended dead or at w_max
            bounds = np.flatnonzero(np.r_[True, held[1:] != held[:-1], True])
            run = np.full(self.lower.size, -1)
            run[held[bounds[:-1]]] = np.arange(bounds.size - 1)
            run = run[x]
            has = run >= 0
            if has.any():
                first, ends = bounds[run[has]], bounds[run[has] + 1]
                lo[has], hi[has], mu[has], m2[has], c[has] = (
                    carried[i][ends - 1] for i in (4, 5, 6, 7, 1)
                )
                w = hi - lo
                beyond = w <= bar
                if extra:
                    # the steps that began past the limit end each run
                    past = carried[3] - carried[2] <= np.where(held < x_lim, edge, w_lim)
                    past = np.r_[0, np.cumsum(past)]
                    spent = np.zeros(x.size, dtype=np.int64)
                    spent[has] = past[ends] - past[first]
                    left = np.where(beyond, extra - spent, -1)
                    beyond &= left <= 0
                over = (c >= w_max) | (lo > u_k) | (hi < l_k)
                stop = beyond & ~over
                stops.append((w[stop], x[stop]))
                walk = ~(over | beyond)
                x, lo, hi, mu, m2, c, bar = (a[walk] for a in (x, lo, hi, mu, m2, c, bar))
                if extra:
                    left = left[walk]
        top = int(c.max(initial=0))
        several = active.size > 1
        short = False
        total = step = 0
        # about the steps an item took at the last level
        chunk = min(64, int(per_item) + extra)
        block = self.weak._draws(x, self.base + c, chunk) if x.size else None
        rows, column = np.arange(x.size), 0
        # The arrays hold a power of two of items: those that stop stay,
        # masked out of `going`, until half have stopped, and the rest pad
        # out with copies of one of them.  numpy keeps freed arrays under
        # 1 KB for reuse, by size, so arrays of every size would leave a few
        # MB behind.
        going, walking = np.ones(x.size, dtype=bool), x.size
        columns: list[tuple] = []
        masks: list[np.ndarray] = []
        while walking:
            if walking <= self.NARROW:
                x, lo, hi, mu, m2, c, rows = (a[going] for a in (x, lo, hi, mu, m2, c, rows))
                if left is not None:
                    left = left[going]
                short |= self._rows(
                    x, lo, hi, mu, m2, c, left, limit, extra, cap - total, budget - step,
                    block[rows, column:], several, l_k, u_k, parts, stops,
                )
                break
            if 2 * walking <= x.size or x.size & (x.size - 1):
                keep = np.flatnonzero(going)
                keep = np.r_[keep, np.full((1 << (walking - 1).bit_length()) - walking, keep[0])]
                x, lo, hi, mu, m2, c, bar, rows = (
                    a[keep] for a in (x, lo, hi, mu, m2, c, bar, rows)
                )
                if left is not None:
                    left = left[keep]
                going = np.arange(x.size) < walking
            if column == block.shape[1]:
                # the next draws of the items still walking, and of no other,
                # as many as the level has walked: at most twice the steps
                now = np.flatnonzero(going)
                block = self.weak._draws(x[now], self.base + c[now], step)
                rows, column = np.zeros(x.size, dtype=np.int64), 0
                rows[now] = np.arange(now.size)
            value = block[rows, column]
            column += 1
            step += 1
            log_terms, offsets = self._tables(top + step)
            # the scalar step on arrays: a Welford update, the radius, the
            # clip to [0, 1], the intersection, and an empty one clamped to
            # the nearer old bound
            pulls = c
            c = c + 1
            d = value - mu
            mu = mu + d / c
            m2 = m2 + d * (value - mu)
            r = offsets[c]
            if self.reads_variance:
                r = np.sqrt(2.0 * (m2 / pulls) * log_terms[c] / c) + r
            # bounds are never -0.0, so maximum and minimum pick as the
            # scalar comparisons do
            new_lo = np.maximum(mu - r, 0.0)
            new_hi = np.minimum(mu + r, 1.0)
            next_lo = np.maximum(lo, new_lo)
            next_hi = np.minimum(hi, new_hi)
            conflict = next_lo > next_hi
            if conflict.any():
                point = np.where(new_lo > hi, hi, lo)
                next_lo[conflict] = point[conflict]
                next_hi[conflict] = point[conflict]
            columns.append((x, c, lo, hi, next_lo, next_hi, mu, m2, value, conflict))
            masks.append(going)
            total += walking
            lo, hi = next_lo, next_hi
            w = hi - lo
            ahead = w > bar
            if left is None:
                done = ~ahead
            else:
                left = np.where(left > 0, left - 1, np.where(ahead, -1, extra))
                done = left == 0
            if several:
                done |= w == 0.0
            if total >= cap or step >= budget:
                done[:] = True
            # a dead item, or one at w_max, is never pulled again
            over = (c >= w_max) | (lo > u_k) | (hi < l_k)
            stop = going & (done | over)
            if stop.any():
                held = stop & ~over
                short |= bool(np.any(held & ahead))
                stops.append((w[held], x[held]))
                going = going & ~stop
                walking = int(np.count_nonzero(going))
        # one copy of the level's steps: the carried ones, the columns' (less
        # the rows of items that had stopped) and the scalar walk's; each
        # field of the columns is freed once copied
        del block
        fields = list(zip(*columns))
        del columns
        # where the columns hold an item still walking
        stepped = np.flatnonzero(np.concatenate(masks)) if masks else np.zeros(0, dtype=np.int64)
        del masks
        walked = stepped.size + sum(part[0].size for part in parts)
        steps = []
        for i, held in enumerate(carried):
            out = np.empty(held.size + walked, dtype=held.dtype)
            out[: held.size] = held
            at = held.size + stepped.size
            if fields:
                # every index is in range, and "clip" takes straight into `out`
                np.take(np.concatenate(fields[i]), stepped, out=out[held.size : at], mode="clip")
                fields[i] = None
            for part in parts:
                out[at : at + part[i].size] = part[i]
                at += part[i].size
            steps.append(out)
        stop_w, stop_x = (np.concatenate(a) for a in zip(*stops)) if stops else (np.zeros(0),) * 2
        return steps, walked, stop_w, stop_x, short

    def _rows(self, x, lo, hi, mu, m2, c, left, limit, extra, cap, budget, block, several,
              l_k, u_k, parts, stops) -> bool:
        """``_walk`` for a few items, one after another by key, in scalar
        floats, with `block` their next draws; appends to `parts` and
        `stops` and returns whether an item stopped short."""
        w_lim, x_lim = limit
        w_max, reads_variance, sqrt = self.w_max, self.reads_variance, math.sqrt
        columns = tuple([] for _ in range(9))
        items, counts, lo_b, hi_b, lo_a, hi_a, mus, m2s, values = columns
        put_lo, put_hi, put_mu, put_m2 = lo_a.append, hi_a.append, mus.append, m2s.append
        short = False
        stop_w, stop_x, conflicts = [], [], []
        # by (lo - hi, item): the items are distinct, so put them in order first
        by_item = np.argsort(x)
        order = by_item[_stable_argsort((lo - hi)[by_item])].tolist()
        for rank, i in enumerate(order):
            # an even share of the cap, so that no item starves the rest
            share = cap // (len(order) - rank)
            xi, c_i = int(x[i]), int(c[i])
            lo_i, hi_i, mu_i, m2_i = float(lo[i]), float(hi[i]), float(mu[i]), float(m2[i])
            start, first = c_i, len(lo_a)
            draws = block[i].tolist()
            todo = min(share, w_max - c_i, budget)
            # the key is below the limit while the width is above `bar`; a
            # width at or below `low` needs a look
            bar = math.nextafter(w_lim, -math.inf) if xi < x_lim else w_lim
            passed = left is not None and left[i] >= 0
            if passed:
                todo = min(todo, int(left[i]))
                low = 0.0 if several else -1.0
            else:
                low = max(bar, 0.0) if several else bar
            held, ended = True, False
            while not ended and c_i - start < todo:
                if c_i - start == len(draws):
                    more = self.weak._draws([xi], self.base + c_i, len(draws) + 16)
                    draws += more.ravel().tolist()
                self._cover(start + min(len(draws), todo))
                log_terms, offsets = self.log_terms, self.offsets
                for value in draws[c_i - start : todo]:
                    pulls = c_i
                    c_i += 1
                    d = value - mu_i
                    mu_i += d / c_i
                    m2_i += d * (value - mu_i)
                    r = offsets[c_i]
                    if reads_variance:
                        r = sqrt(2.0 * (m2_i / pulls) * log_terms[c_i] / c_i) + r
                    new_lo = mu_i - r
                    if new_lo < 0.0:
                        new_lo = 0.0
                    new_hi = mu_i + r
                    if new_hi > 1.0:
                        new_hi = 1.0
                    next_lo = lo_i if lo_i >= new_lo else new_lo
                    next_hi = hi_i if hi_i <= new_hi else new_hi
                    if next_lo > next_hi:
                        next_lo = next_hi = hi_i if new_lo > hi_i else lo_i
                        conflicts.append(len(lo_a))
                    lo_i, hi_i = next_lo, next_hi
                    put_lo(lo_i)
                    put_hi(hi_i)
                    put_mu(mu_i)
                    put_m2(m2_i)
                    w = hi_i - lo_i
                    if w <= low or lo_i > u_k or hi_i < l_k:
                        if lo_i > u_k or hi_i < l_k:
                            held, ended = False, True
                        elif w == 0.0 and several:
                            ended = True
                        if not passed and w <= bar:
                            passed = True
                            ended = ended or left is None
                            # `extra` more steps: leave the slice to end there
                            todo = min(todo, c_i - start + extra)
                            low = 0.0 if several else -1.0
                            break
                        if ended:
                            break
            size = c_i - start
            cap -= size
            if size:
                items.extend([xi] * size)
                counts.extend(range(start + 1, c_i + 1))
                lo_b.append(float(lo[i]))
                lo_b.extend(lo_a[first : first + size - 1])
                hi_b.append(float(hi[i]))
                hi_b.extend(hi_a[first : first + size - 1])
                values.extend(draws[:size])
            if held and c_i < w_max:
                stop_w.append(hi_i - lo_i)
                stop_x.append(xi)
                short = short or not passed
        if items:
            conflict = np.zeros(len(items), dtype=bool)
            conflict[conflicts] = True
            parts.append(tuple(np.array(a) for a in columns) + (conflict,))
        stops.append((np.array(stop_w), np.array(stop_x, dtype=np.int64)))
        return short

    def _commit(self, steps, frontier, budget_left):
        """Merge the steps below the frontier, charge the live ones within the
        budget, and take their results; returns (how many steps lie below the
        frontier, budget left, the steps above it in (item, count) order).

        A merged step is live while its bounds before it pass the ambiguity
        test against the l_k and u_k in force before it; each tracker answers
        that for the whole merge, replaying it only as far as a step whose
        answer is in doubt.

        `steps` is a list of the level's step columns, which this empties:
        the steps above the frontier are split off first, and each column
        is freed once it is no longer needed, all before the charge."""
        x, c, lo_b, hi_b, lo_a, hi_a, mu, m2, value, conflict = steps
        steps.clear()
        width = hi_b - lo_b
        # the steps in (item, count) order, which no two share, split at the
        # frontier; those below it by ascending (-width, item, count)
        by_step = x * (int(c.max(initial=0)) + 1)
        by_step += c
        by_step = _stable_argsort(by_step)
        if frontier is None:
            below = np.ones(x.size, dtype=bool)
        else:
            w_f, x_f = frontier
            below = ((width == w_f) & (x <= x_f)) | (width > w_f)
        below = below[by_step]
        above, order = by_step[~below], by_step[below]
        del by_step, below
        width = width[order]
        np.negative(width, out=width)
        order = order[_stable_argsort(width)]
        del width
        columns = (x, c, lo_b, hi_b, lo_a, hi_a, mu, m2, value, conflict)
        above = tuple(a[above] for a in columns) if above.size else _no_steps()
        del columns
        items, before_lo, before_hi = x[order], lo_b[order], hi_b[order]
        del x, lo_b, hi_b
        # a step is live while before_hi >= l_k and -before_lo >= -u_k
        live = self.kth_lower.rise_many(items, before_lo, lo_a[order], before_hi)
        # negated in place: the u_k tracker keeps -upper, which only rises
        after = hi_a[order]
        live &= self.kth_neg_upper.rise_many(
            items,
            np.negative(before_hi, out=before_hi),
            np.negative(after, out=after),
            np.negative(before_lo, out=before_lo),
        )
        del before_hi, after, before_lo
        kept = order.size
        at = np.flatnonzero(live)[:budget_left]
        taken, items = order[at], items[at]
        del live, order, at
        counts, planned = c[taken], value[taken]
        self.conflicts += int(np.count_nonzero(conflict[taken]))
        np.maximum.at(self.counts, items, counts)
        last = counts == self.counts[items]
        ends, last = items[last], taken[last]
        self.lower[ends], self.upper[ends] = lo_a[last], hi_a[last]
        self.means[ends], self.m2[ends] = mu[last], m2[last]
        del c, lo_a, hi_a, mu, m2, value, conflict, taken, ends, last
        # a step of count c reads its item's stream at position base + c - 1
        self.weak._charge(items, counts + (self.base - 1), planned)
        return kept, budget_left - items.size, above

    def _carry(self, rest, above):
        """The steps of `rest` and `above`, each in (item, count) order and
        sharing no item, merged in that order, less the dead ones: a step
        whose bounds before it are no longer ambiguous is dead, and so is
        every later step of its item, since l_k only rises and u_k only falls."""
        l_k, u_k = self.kth_lower.threshold, -self.kth_neg_upper.threshold

        def live(steps):
            keep = (steps[2] <= u_k) & (steps[3] >= l_k)
            return steps if keep.all() else tuple(a[keep] for a in steps)

        rest, above = live(rest), live(above)
        if not rest[0].size or not above[0].size:
            return above if not rest[0].size else rest
        at = np.searchsorted(rest[0], above[0]) + np.arange(above[0].size)
        from_rest = np.ones(rest[0].size + above[0].size, dtype=bool)
        from_rest[at] = False
        merged = []
        for old, new in zip(rest, above):
            column = np.empty(from_rest.size, dtype=old.dtype)
            column[from_rest] = old
            column[at] = new
            merged.append(column)
        return tuple(merged)


def _split(steps: tuple, items: np.ndarray, n: int) -> tuple[tuple, tuple]:
    """The steps of `items` (of n), and the rest, from steps in (item, count)
    order; both keep that order."""
    if not steps[0].size:
        return steps, steps
    mine = np.zeros(n, dtype=bool)
    mine[items] = True
    mine = mine[steps[0]]
    if mine.all():
        return steps, _no_steps()
    return tuple(a[mine] for a in steps), tuple(a[~mine] for a in steps)


def _no_steps() -> tuple:
    """The step columns of ``_WeakPlan`` with no steps in them."""
    ints, floats = np.zeros(0, dtype=np.int64), np.zeros(0)
    return (ints, ints) + (floats,) * 7 + (np.zeros(0, dtype=bool),)


def _widest(widths: np.ndarray, items: np.ndarray) -> tuple[float, int]:
    """The smallest key (-width, item)."""
    widest = widths.max()
    return float(widest), int(items[widths == widest].min())


class AdaptiveCertifyWeak(AdaptiveCertify):
    """Two-phase fully adaptive certification.

    Phase I (adaptive weak allocation): warm-start every item with ``w_min``
    pulls under time-uniform confidence sequences, then spend the remaining
    weak budget one pull at a time on the ambiguous item with the widest
    interval (skipping items that reached ``w_max``).  Phase II freezes the
    intervals and runs the adaptive strong loop on them.

    The pull order of phase I is planned rather than found pull by pull: it is
    the merge of per-item interval trajectories, computed in numpy over many
    items at once and pulled in counted batches (see ``_WeakPlan``); the pulls,
    bounds and conflicts are those of the pull-by-pull rule, bit for bit.
    Each planned step, with its draw, is computed once: a step planned past
    one batch waits for a later one.  A batch is charged to the weak oracle by
    stream position, and a batch that does not start at each item's stream
    position raises; a source that overrides ``pull`` or ``pull_many`` has
    each batch pulled through ``pull_many`` instead, and a value that differs
    from the plan's draw raises.
    """

    def __init__(
        self,
        k: int,
        delta: float = 0.05,
        weak_budget: int | None = None,
        w_min: int = 6,
        w_max: int | None = None,
        ci_method: str = "subgaussian",
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
        delta_x = self._delta_x(n)
        means, variances = weak.pull_all_moments(w_min, w_min >= 2 and method.reads_variance)
        if variances is None:
            variances = np.zeros(n)
        radii = method.batch_radius(w_min, variances, delta_x, anytime=True)
        lower = np.clip(means - radii, 0.0, 1.0)
        upper = np.clip(means + radii, 0.0, 1.0)
        m2 = variances * (w_min - 1)
        plan = _WeakPlan(weak, method, delta_x, k, w_min, w_max, lower, upper, means.copy(), m2)
        plan.run(budget - n * w_min)
        return IntervalState(lower, upper, plan.counts, plan.means, plan.conflicts)


def _by_estimate(keys: np.ndarray, upper: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `size` items of ``_stable_argsort(keys)``, each paired with
    the largest of `upper` among the items after it in that order, as two
    arrays."""
    order = _leading(keys, size)
    rest = np.ones(keys.size, dtype=bool)
    rest[order] = False
    later = np.empty(size)
    later[-1] = np.max(upper, where=rest, initial=-np.inf)
    np.maximum(np.maximum.accumulate(upper[order][:0:-1])[::-1], later[-1], out=later[:-1])
    return order, later


def _head_pool(keys: np.ndarray, count: int) -> np.ndarray | None:
    """The indices, ascending, of the keys at or below a cut guessed from a
    strided sample, as in ``kth_largest``, so that at least `count` keys
    reach it but not many more.  The pool then holds the first pool.size
    items of ``_stable_argsort(keys)``.  None for a short array, a `count`
    that is not small against it, and a guess that too few keys reach."""
    n = keys.size
    if n < _SAMPLE_FROM or count > n // 8:
        return None
    sample = np.sort(keys[:: n // _SAMPLE])
    cut = sample[_guess_rank(n, sample.size, count) - 1]
    # NaN sorts last, so the keys at or below a number are all ahead of
    # every NaN
    pool = np.flatnonzero(keys <= cut)
    return pool if pool.size >= count else None


def _leading(keys: np.ndarray, size: int) -> np.ndarray:
    """``_stable_argsort(keys)[:size]``: the `size` smallest keys' indices,
    by key and then index.  Only the ``_smallest`` of them are sorted."""
    if 0 < size < keys.size:
        chosen = np.sort(_smallest(keys, size))
        return chosen[_stable_argsort(keys[chosen])]
    return _stable_argsort(keys)[:size]


def _smallest(keys: np.ndarray, size: int) -> np.ndarray:
    """The indices of ``_stable_argsort(keys)[:size]`` in no stated order:
    the `size` smallest keys, ties at the cut to the lower index.  The
    indices at or below a cut are taken by partition; for a long array and
    a small `size`, only the pool of ``_head_pool`` is partitioned."""
    if not 0 < size < keys.size:
        return np.arange(min(size, keys.size))
    pool = _head_pool(keys, size)
    if pool is not None:
        return pool[_smallest(keys[pool], size)]
    cut = np.partition(keys, size - 1)[size - 1]
    # NaN sorts last and equals nothing; a NaN cut falls back to sorting
    if cut != cut:
        return _stable_argsort(keys)[:size]
    below = np.flatnonzero(keys < cut)
    tied = np.flatnonzero(keys == cut)[: size - below.size]
    return np.concatenate([below, tied])


class ThresholdCertify(BaseCertifier):
    """Verify items in weak-estimate order with an early-stopping certificate.

    Items are strong-queried by descending weak point estimate.  Once k items
    are verified, stop as soon as the k-th largest verified value is at least
    the largest weak upper bound among unverified items; those can then never
    belong to the top-k.

    The items are queried in blocks, each one ``query_many`` call, and the
    rule is tested at each block's end; the trace and the calls are those of
    the rule tested after every single query.  A block is as long as the
    rule provably cannot fire inside it: with q values verified, the k-th
    largest after s more is at most the (k - s)-th largest of the q (it is
    unbounded for s >= k and undefined while q + s < k), and the bound that
    the rule compares it with only falls along the order.  So the block runs
    up to the first s at which that ceiling reaches the bound: k items first,
    and at most k after that.  A NaN value ends the phase at the end of its
    block, where the reveal of the NaN raises.
    """

    def _strong_phase(self, weak_state: IntervalState, k: int, strong):
        n = weak_state.n
        keys, upper = -weak_state.point_estimates(), weak_state.upper
        # items by descending estimate, equal ones by index: the first 2k,
        # then twice as many each time a block would run past them
        order, later = _by_estimate(keys, upper, min(n, 2 * k))
        item_parts: list[np.ndarray] = []
        value_parts: list[np.ndarray] = []
        # the k largest verified values, in descending order
        top = np.zeros(0)
        q = 0
        while q < n:
            # a block reaches at most k items past q, and q lies within the
            # head, at least 2k long, so one doubling covers it
            if order.size < min(n, q + k):
                order, later = _by_estimate(keys, upper, min(n, 2 * order.size))
            if q < k:
                # the first block: the rule needs k values
                s = k
            else:
                # the ceiling on the k-th largest after j more values is
                # top[k - 1 - j] for j < k; the rule may fire at the first j
                # where it reaches the bound after the j-th
                ahead = later[q : q + k - 1]
                reach = top[: k - 1][::-1][: ahead.size] >= ahead
                s = int(np.argmax(reach)) + 1 if reach.any() else k
            s = min(s, n - q)
            items = order[q : q + s]
            values = strong.query_many(items)
            item_parts.append(items)
            value_parts.append(values)
            q += s
            if np.isnan(values).any():
                break
            top = np.sort(np.concatenate([top, values]))[::-1][:k]
            if q >= k and top[k - 1] >= later[q - 1]:
                break
        verified = np.concatenate(item_parts)
        vals = np.concatenate(value_parts)
        # by (-value, item): the items are distinct, so put them in order first
        by_item = np.argsort(verified)
        return verified[by_item][_leading(-vals[by_item], k)], verified, vals


class BruteForceCertify(BaseCertifier):
    """Strong-query every item; the exact reference certifier."""

    def __init__(self, k: int):
        self.k = k

    def _run(self, weak, strong, initial_state) -> CertificationReport:
        if strong is None:
            raise ValueError("brute force certification needs a strong oracle, got None")
        n = strong.n_items
        k = check_k(self.k, n, allow_zero=True)
        trace = list(range(n))
        values = strong.query_many(trace)
        state = IntervalState.from_bounds(values, values, means=values)
        selected = _smallest(-values, k)
        return self._report(k, selected, state, trace, values, tuple(trace), 0)


ALGORITHMS: dict[str, type[BaseCertifier]] = {
    "stc": ScreenThenCertify,
    "ace": AdaptiveCertify,
    "ace_w": AdaptiveCertifyWeak,
    "ta": ThresholdCertify,
    "brute": BruteForceCertify,
}

