"""Input validation helpers shared across the package."""

from __future__ import annotations

import math

import numpy as np


def check_int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """Validate an integer parameter and return it as a plain int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_probability(value, name: str) -> float:
    """Validate a probability strictly inside (0, 1)."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def check_positive(value, name: str) -> float:
    value = float(value)
    if not value > 0.0 or math.isnan(value):
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value, name: str) -> float:
    value = float(value)
    if value < 0.0 or math.isnan(value):
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_k(k, n: int, allow_zero: bool = False) -> int:
    """Validate a top-k size against the number of items."""
    k = check_int(k, "k", minimum=0 if allow_zero else 1)
    if k > n:
        raise ValueError(f"k must be <= n={n}, got {k}")
    return k


def check_values(values, name: str = "values") -> np.ndarray:
    """Validate item values: a non-empty 1-D array with entries in [0, 1]."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr.min() < 0.0 or arr.max() > 1.0:
        bad = int(np.argmax((arr < 0.0) | (arr > 1.0)))
        raise ValueError(f"{name}[{bad}]={arr[bad]} outside [0, 1]")
    return arr
