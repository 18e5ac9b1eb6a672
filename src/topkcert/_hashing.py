"""Counter-based random streams.

Observation t for item x is a pure function of (seed, x, t): a splitmix64-style
avalanche over the (seed, item, pull-index) triple, mapped through the inverse
normal CDF when Gaussian noise is required.  The scalar (Python int) and
vectorized (uint64 ndarray) code paths produce bit-identical doubles, which is
what makes single-pull adaptive loops and bulk weak phases replay-consistent.

The bulk (n, count) matrix of a uniform weak phase is built in blocks of
``ROW_BLOCK`` rows: each block runs the hash, the inverse CDF, the scaling and
the offset in place inside the output, so the only full-size array is the
result and the per-block scratch stays cache-sized.  Every step is the same
elementwise operation the scalar path applies, so blocking changes no bit.
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


def uniform_scalar(key: int, t: int) -> float:
    """Uniform double in (0, 1) for pull index t of one item."""
    z = mix64(key ^ t)
    return ((z >> 11) + 0.5) * _INV_2_53


def uniform_block(key: int, t0: int, count: int) -> np.ndarray:
    """Uniforms for pull indexes t0 .. t0+count-1 of one item."""
    ts = np.arange(t0, t0 + count, dtype=np.uint64)
    z = mix64_array(np.uint64(key) ^ ts)
    return ((z >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def gaussian_scalar(key: int, t: int, sigma: float) -> float:
    """sigma * standard normal for pull index t, via inverse-CDF."""
    return sigma * float(ndtri(uniform_scalar(key, t)))


def gaussian_block(key: int, t0: int, count: int, sigma: float) -> np.ndarray:
    return sigma * ndtri(uniform_block(key, t0, count))


def gaussian_matrix(
    keys: np.ndarray, t0: int, count: int, sigma: float, offsets: np.ndarray | None = None
) -> np.ndarray:
    """(n, count) matrix: row x holds offsets[x] + sigma * N(0, 1) for pulls t0 .. t0+count-1.

    Bit-identical to ``offsets[:, None] + gaussian_block(keys[x], t0, count, sigma)``
    row by row; ``offsets`` defaults to zero.
    """
    n = keys.size
    out = np.empty((n, count))
    ts = np.arange(t0, t0 + count, dtype=np.uint64)
    bits = np.empty((min(n, ROW_BLOCK), count), dtype=np.uint64)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        z = bits[: hi - lo]
        np.bitwise_xor(keys[lo:hi, None], ts[None, :], out=z)
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
