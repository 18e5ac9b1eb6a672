"""How fast the machine runs right now, measured with two fixed reference kernels.

On shared machines the speed of one CPU drifts, by up to 2x over tens of
seconds, with no steal time to show for it; process CPU time drifts with wall
time.  Some drifts slow interpreter-bound code most, others code that moves
memory within the caches, so the benchmark times one kernel of each kind
next to every measurement (between replicates, with the workload paused) and
takes their mean slowdown against nominal times:

    reported = measured / slowdown
    slowdown = mean over kernels of (kernel time / its nominal time)

On a machine where the kernels take their nominal times, reported times are
wall times.  Raw wall times are printed beside them.
"""

from __future__ import annotations

import statistics
from bisect import insort
from time import perf_counter

# Nominal kernel times (ms): their medians on the machine the benchmark was
# tuned on, a shared 2-vCPU x86_64 VM with Python 3.11.7.
NOMINAL_MS = {"interpreter": 6.0, "cache": 6.4}

# A list of this many items spans 400 KB, like ace_w's sorted bound lists at
# n = 5e4, which it shifts on every adaptive pull.
_CACHE_ITEMS = 50_000


def _interpreter_kernel() -> None:
    table = {}
    state = 0
    for i in range(20_000):
        table[i & 1023] = state
        state = (state * 31 + i) & 0xFFFFFFFF
    sorted(range(5000, 0, -1))


def _median_ms(kernel, repeats: int) -> float:
    kernel()  # warm the caches before timing
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def slowdown(repeats: int = 3) -> float:
    """The machine's current slowdown against the nominal kernel times."""
    items = [float(i) for i in range(_CACHE_ITEMS)]

    def cache_kernel():
        for i in range(200):
            del items[i]
            insort(items, float(i))

    measured = {
        "interpreter": _median_ms(_interpreter_kernel, repeats),
        "cache": _median_ms(cache_kernel, repeats),
    }
    return statistics.mean(measured[name] / NOMINAL_MS[name] for name in NOMINAL_MS)
