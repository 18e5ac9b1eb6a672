"""Counter-based random streams.

Observation t for item x is a pure function of (seed, x, t): a splitmix64-style
avalanche over the (seed, item, pull-index) triple, mapped through the inverse
normal CDF when Gaussian noise is required.  The scalar (Python int) and
vectorized (uint64 ndarray) code paths produce bit-identical doubles, which is
what makes single-pull adaptive loops and bulk weak phases replay-consistent.

There is one vectorized path, ``gaussian_rows``: row r holds the draws of one
item from its own start position on.  The bulk (n, count) matrix of a uniform
weak phase (``gaussian_matrix``) is the case where every row starts at the
same position, and one item's block (``gaussian_block``) the case of a single
row.  Rows are built in blocks of ``ROW_BLOCK``: each block runs the hash, the
inverse CDF, the scaling and the offset in place inside the output, so the
only full-size array is the result and the per-block scratch stays
cache-sized.  Every step is the same elementwise operation the scalar path
applies, so neither blocking nor the choice of rows changes a bit.  That is
also why draws may be computed ahead of the pulls that consume them.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_ITEM_SALT = 0xD1B54A32D192ED03
_INV_2_53 = 2.0**-53
ROW_BLOCK = 2048


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python integer (mod 2^64)."""
    z = (z + _GAMMA) & _MASK
    z ^= z >> 30
    z = (z * _MUL1) & _MASK
    z ^= z >> 27
    z = (z * _MUL2) & _MASK
    z ^= z >> 31
    return z


def mix64_array(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array; `out` may be `z`."""
    z = np.add(z, np.uint64(_GAMMA), out=out)
    shifted = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= np.uint64(_MUL1)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(_MUL2)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def item_keys(seed: int, n: int) -> np.ndarray:
    """Per-item base keys derived from the oracle seed."""
    base = mix64(int(seed) & _MASK)
    items = mix64_array(np.arange(n, dtype=np.uint64) ^ np.uint64(_ITEM_SALT))
    return mix64_array(np.uint64(base) ^ items)


def gaussian_scalar(key: int, t: int, sigma: float) -> float:
    """sigma * standard normal for pull index t, via inverse-CDF of a uniform in (0, 1)."""
    z = mix64(key ^ t)
    return sigma * float(ndtri(((z >> 11) + 0.5) * _INV_2_53))


def gaussian_block(key: int, t0: int, count: int, sigma: float) -> np.ndarray:
    """sigma * N(0, 1) for pull indexes t0 .. t0+count-1 of one item."""
    return gaussian_rows(np.array([key], dtype=np.uint64), t0, count, sigma)[0]


def gaussian_matrix(
    keys: np.ndarray, t0: int, count: int, sigma: float, offsets: np.ndarray | None = None
) -> np.ndarray:
    """(n, count) matrix: row x holds offsets[x] + sigma * N(0, 1) for pulls t0 .. t0+count-1.

    Bit-identical to ``offsets[:, None] + gaussian_block(keys[x], t0, count, sigma)``
    row by row; ``offsets`` defaults to zero.
    """
    return gaussian_rows(keys, t0, count, sigma, offsets)


def gaussian_rows(
    keys: np.ndarray, starts, count: int, sigma: float, offsets: np.ndarray | None = None
) -> np.ndarray:
    """(m, count) matrix of per-row draws: row r holds offsets[r] + sigma * N(0, 1)
    for pulls starts[r] .. starts[r]+count-1 of the item whose key is keys[r].

    ``starts`` is an array of m positions, or one int at which every row
    starts; ``offsets`` defaults to zero.
    """
    m = keys.size
    out = np.empty((m, count))
    steps = np.arange(count, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.uint64).reshape(-1, 1)
    bits = np.empty((min(m, ROW_BLOCK), count), dtype=np.uint64)
    for lo in range(0, m, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, m)
        z = bits[: hi - lo]
        first = starts if starts.size == 1 else starts[lo:hi]
        np.bitwise_xor(keys[lo:hi, None], first + steps, out=z)
        mix64_array(z, out=z)
        z >>= np.uint64(11)
        block = out[lo:hi]
        np.add(z, 0.5, out=block)
        block *= _INV_2_53
        ndtri(block, out=block)
        block *= sigma
        if offsets is not None:
            block += offsets[lo:hi, None]
    return out
