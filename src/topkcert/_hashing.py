"""Counter-based random streams.

Observation t for item x is a pure function of (seed, x, t): a splitmix64-style
avalanche over the (seed, item, pull-index) triple, mapped through the inverse
normal CDF when Gaussian noise is required.  The scalar (Python int) and
vectorized (uint64 ndarray) code paths produce bit-identical doubles, which is
what makes single-pull adaptive loops and bulk weak phases replay-consistent.

There is one vectorized path, ``_draw_block``, which runs the hash, the
inverse CDF, the scaling and the offset in place over a block of at most
``ROW_BLOCK`` rows, so the per-block scratch stays cache-sized.  Every step is
the same elementwise operation the scalar path applies, so neither blocking
nor the choice of rows changes a bit.  That is also why draws may be computed
ahead of the pulls that consume them.  Two loops feed it:

- ``gaussian_rows`` writes each block into its (m, count) result: row r holds
  the draws of one item from its own start position on.  The bulk (n, count)
  matrix of a uniform weak phase is the case where every row starts at the
  same position.
- ``row_moments`` writes each block into one reused scratch block and reduces
  it to per-row means (and variances) while it is still in cache.  A uniform
  screen needs nothing else, so it never holds the (n, count) matrix; the
  reductions are the same numpy calls over the same rows, so they match the
  matrix's bit for bit.
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
# the top 53 bits of a hash, capped here: (2**53 - 1) + 0.5 rounds to 2**53,
# a uniform of exactly 1.0 and an infinite draw; (2**53 - 2) + 0.5 rounds to
# 2**53 - 2, so the cap moves that one value and no other
_TOP_BITS = 2**53 - 2
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
    """sigma * standard normal for pull index t, via inverse-CDF of a uniform in (0, 1).

    The uniform lies in [2**-54, 1 - 2**-52], so the standard normal lies in
    [-8.30, 8.13]."""
    z = mix64(key ^ t)
    return sigma * float(ndtri((min(z >> 11, _TOP_BITS) + 0.5) * _INV_2_53))


def gaussian_rows(
    keys: np.ndarray, starts, count: int, sigma: float, offsets: np.ndarray
) -> np.ndarray:
    """(m, count) matrix of per-row draws: row r holds offsets[r] + sigma * N(0, 1)
    for pulls starts[r] .. starts[r]+count-1 of the item whose key is keys[r].

    ``starts`` is an array of m positions, or one int at which every row
    starts.
    """
    m = keys.size
    out = np.empty((m, count))
    steps = np.arange(count, dtype=np.uint64)
    starts = np.asarray(starts, dtype=np.uint64).reshape(-1, 1)
    bits = np.empty((min(m, ROW_BLOCK), count), dtype=np.uint64)
    for lo in range(0, m, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, m)
        first = starts if starts.size == 1 else starts[lo:hi]
        _draw_block(out[lo:hi], bits[: hi - lo], keys[lo:hi], first + steps, sigma, offsets[lo:hi])
    return out


def row_moments(
    keys: np.ndarray | None, t0: int, count: int, sigma: float, offsets: np.ndarray,
    clamp: bool = False, variance: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Row means, and row variances (ddof=1) when `variance` is set, of the
    matrix ``gaussian_rows(keys, t0, count, sigma, offsets)``, clipped in
    place to [0, 1] first when `clamp` is set, without building that matrix.

    ``keys=None`` stands for noise-free rows: row r holds offsets[r] `count`
    times, and nothing is clipped.  Each block of rows is drawn into one
    reused (ROW_BLOCK, count) scratch block and reduced with the same
    ``mean``/``var`` calls along its rows, so the results equal the full
    matrix's row reductions bit for bit.
    """
    m = offsets.size
    means = np.empty(m)
    variances = np.empty(m) if variance else None
    scratch = np.empty((min(m, ROW_BLOCK), count))
    bits = np.empty(scratch.shape, dtype=np.uint64)
    positions = np.uint64(t0) + np.arange(count, dtype=np.uint64)
    for lo in range(0, m, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, m)
        block = scratch[: hi - lo]
        if keys is None:
            block[:] = offsets[lo:hi, None]
        else:
            _draw_block(block, bits[: hi - lo], keys[lo:hi], positions, sigma, offsets[lo:hi])
            if clamp:
                np.clip(block, 0.0, 1.0, out=block)
        block.mean(axis=1, out=means[lo:hi])
        if variance:
            block.var(axis=1, ddof=1, out=variances[lo:hi])
    return means, variances


def _draw_block(
    out: np.ndarray, bits: np.ndarray, keys: np.ndarray, positions: np.ndarray, sigma: float,
    offsets: np.ndarray,
) -> None:
    """Write offsets[r] + sigma * N(0, 1) for row r's pull indexes `positions`
    into out[r]; `bits` is uint64 scratch of out's shape.

    The module's one vectorized draw path: the hash, the inverse CDF, the
    scaling and the offset run in place, each the elementwise step the scalar
    path applies.
    """
    np.bitwise_xor(keys[:, None], positions, out=bits)
    mix64_array(bits, out=bits)
    bits >>= np.uint64(11)
    np.minimum(bits, np.uint64(_TOP_BITS), out=bits)
    np.add(bits, 0.5, out=out)
    out *= _INV_2_53
    ndtri(out, out=out)
    out *= sigma
    out += offsets[:, None]
