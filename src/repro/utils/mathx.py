"""Small numeric helpers used across the library.

These are the few pieces of math shared between otherwise unrelated
subsystems: rational GCDs for periodic-schedule theory, min-max
normalization for outcome vectors, and a jittered Cholesky for GP kernels.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

import numpy as np

#: Denominator limit when converting float periods to exact rationals.
#: Periods in this library are derived from integer frame rates (T = 1/s,
#: s <= 120 fps), so 1e6 is far beyond what is ever needed but cheap.
_FRACTION_LIMIT = 1_000_000


def _to_fraction(x: float) -> Fraction:
    return Fraction(x).limit_denominator(_FRACTION_LIMIT)


def gcd_many(values: Sequence[float] | Iterable[float]) -> float:
    """Greatest common divisor of positive rational values (e.g. periods).

    Stream periods are rationals (inverse integer frame rates), so the GCD
    is computed exactly over :class:`fractions.Fraction` and returned as a
    float.  Raises ``ValueError`` on empty input or non-positive values.

    >>> gcd_many([0.2, 0.1])
    0.1
    >>> gcd_many([1/3, 1/6])  # doctest: +ELLIPSIS
    0.1666...
    """
    vals = list(values)
    if not vals:
        raise ValueError("gcd_many requires at least one value")
    fracs = []
    for v in vals:
        if not np.isfinite(v) or v <= 0:
            raise ValueError(f"gcd_many requires positive finite values, got {v!r}")
        fracs.append(_to_fraction(float(v)))
    num = fracs[0].numerator
    den = fracs[0].denominator
    for f in fracs[1:]:
        # gcd(a/b, c/d) = gcd(a*d, c*b) / (b*d), reduced incrementally.
        num, den = gcd(num * f.denominator, f.numerator * den), den * f.denominator
        g = gcd(num, den)
        num //= g
        den //= g
    return num / den


def is_harmonic(periods: Sequence[float]) -> bool:
    """True iff every period is an integer multiple of the minimum period.

    This is condition (a) of Theorem 3: with T_min = min(T_i), each
    T_i = t * T_min for integer t.  Uses exact rational arithmetic.
    """
    vals = [_to_fraction(float(p)) for p in periods]
    if not vals:
        return True
    t_min = min(vals)
    if t_min <= 0:
        raise ValueError("periods must be positive")
    return all((p / t_min).denominator == 1 for p in vals)


def normalize_minmax(
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    clip: bool = True,
) -> np.ndarray:
    """Map ``values`` affinely so [lo, hi] -> [0, 1] (per component).

    Degenerate components (hi == lo) map to 0.5 — they carry no
    information, and 0.5 keeps them from dominating L1 distances.
    """
    values = np.asarray(values, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    span = hi - lo
    degenerate = span <= 0
    safe_span = np.where(degenerate, 1.0, span)
    out = (values - lo) / safe_span
    out = np.where(degenerate, 0.5, out)
    if clip:
        out = np.clip(out, 0.0, 1.0)
    return out


def safe_cholesky(a: np.ndarray, *, max_tries: int = 8, jitter: float = 1e-10) -> np.ndarray:
    """Cholesky factor of a symmetric PSD matrix with escalating jitter.

    Kernel matrices are frequently semi-definite to machine precision;
    adding the smallest diagonal jitter that makes the factorization
    succeed is the standard GP fix.  Raises ``np.linalg.LinAlgError`` after
    ``max_tries`` doublings (jitter grows 10x per retry).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"safe_cholesky requires a square matrix, got {a.shape}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(a.shape[0])
    scale = float(np.mean(np.diag(a))) or 1.0
    j = jitter * scale
    for _ in range(max_tries):
        try:
            return np.linalg.cholesky(a + j * eye)
        except np.linalg.LinAlgError:
            j *= 10.0
    raise np.linalg.LinAlgError(
        f"matrix not PSD even with jitter {j:.3e} (diag mean {scale:.3e})"
    )

