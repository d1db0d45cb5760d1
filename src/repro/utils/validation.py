"""Argument validation helpers with consistent error messages.

Validation is deliberately loud: scheduling and GP code silently produces
garbage (singular kernels, infeasible groupings) on malformed input, so
public entry points validate eagerly and raise ``ValueError`` with the
offending name and value.
"""

from __future__ import annotations

import math

import numpy as np


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite scalar."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if strict and v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if not strict and v < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return v


def check_in_range(
    name: str,
    value: float,
    lo: float,
    hi: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate ``lo <= value <= hi`` (or strict if ``inclusive=False``)."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    ok = (lo <= v <= hi) if inclusive else (lo < v < hi)
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValueError(f"{name} must satisfy {lo} {op} {name} {op} {hi}, got {value!r}")
    return v


def check_array_1d(name: str, arr, *, dtype=float, min_len: int = 0) -> np.ndarray:
    """Coerce to a 1-D ndarray, validating finiteness and minimum length."""
    a = np.asarray(arr, dtype=dtype)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {a.shape}")
    if a.size < min_len:
        raise ValueError(f"{name} must have at least {min_len} elements, got {a.size}")
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def check_array_2d(
    name: str,
    arr,
    *,
    dtype=float,
    n_cols: int | None = None,
) -> np.ndarray:
    """Coerce to a 2-D ndarray, optionally validating the column count."""
    a = np.asarray(arr, dtype=dtype)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if n_cols is not None and a.shape[1] != n_cols:
        raise ValueError(f"{name} must have {n_cols} columns, got {a.shape[1]}")
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a
