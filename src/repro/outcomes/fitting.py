"""Regression model for outcome surfaces.

The paper's §3 models each objective "through either multivariable
linear regression or polynomial regression" as a product θ(r)·ε(s) with
θ linear-or-quadratic and ε linear.  :class:`SeparableProduct` fits that
exact rank-1 form by alternating least squares, on normalized inputs so
polynomial conditioning stays sane across the (300..2000) × (1..30) raw
ranges; :func:`r2_score` is the §5.3 fit metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_array_1d


def r2_score(y_true, y_pred) -> float:
    """Coefficient of determination R² = 1 − SS_res / SS_tot (§5.3)."""
    y_true = check_array_1d("y_true", y_true, min_len=1)
    y_pred = check_array_1d("y_pred", y_pred, min_len=1)
    if y_true.size != y_pred.size:
        raise ValueError(f"length mismatch: {y_true.size} vs {y_pred.size}")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    ss_tot = float(np.sum((y_true - np.mean(y_true)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _poly_basis(t: np.ndarray, degree: int) -> np.ndarray:
    """Vandermonde columns [1, t, t², ...] of shape (n, degree+1)."""
    return np.vander(t, degree + 1, increasing=True)


@dataclass
class _Scaler:
    lo: float
    hi: float

    def __call__(self, t: np.ndarray) -> np.ndarray:
        span = self.hi - self.lo
        return (np.asarray(t, dtype=float) - self.lo) / (span if span > 0 else 1.0)


class SeparableProduct:
    """The paper's θ(r)·ε(s) form, fitted by alternating least squares.

    θ is a polynomial of degree ``deg_r`` (quadratic by default), ε of
    degree ``deg_s`` (linear by default).  The product is bilinear in
    the two coefficient vectors, so ALS converges in a handful of
    sweeps.  The scale ambiguity (θ·c, ε/c) is fixed by normalizing ε's
    leading coefficient norm to 1 after each sweep.
    """

    def __init__(self, deg_r: int = 2, deg_s: int = 1, *, n_sweeps: int = 25) -> None:
        if deg_r < 0 or deg_s < 0:
            raise ValueError("degrees must be >= 0")
        self.deg_r = int(deg_r)
        self.deg_s = int(deg_s)
        self.n_sweeps = int(n_sweeps)
        self.theta_: np.ndarray | None = None
        self.eps_: np.ndarray | None = None
        self._scale_r: _Scaler | None = None
        self._scale_s: _Scaler | None = None

    def fit(self, r, s, y) -> "SeparableProduct":
        """Alternating least squares for the θ(r)·ε(s) product form."""
        r = check_array_1d("r", r, min_len=1)
        s = check_array_1d("s", s, min_len=1)
        y = check_array_1d("y", y, min_len=1)
        if not (r.size == s.size == y.size):
            raise ValueError("r, s, y must have equal length")
        self._scale_r = _Scaler(float(r.min()), float(r.max()))
        self._scale_s = _Scaler(float(s.min()), float(s.max()))
        br = _poly_basis(self._scale_r(r), self.deg_r)
        bs = _poly_basis(self._scale_s(s), self.deg_s)
        theta = np.ones(self.deg_r + 1)
        eps = np.ones(self.deg_s + 1)
        for _ in range(self.n_sweeps):
            # Fix ε, solve for θ:  y ≈ diag(bs @ eps) (br @ theta)
            w = bs @ eps
            theta, *_ = np.linalg.lstsq(br * w[:, None], y, rcond=None)
            # Fix θ, solve for ε.
            v = br @ theta
            eps, *_ = np.linalg.lstsq(bs * v[:, None], y, rcond=None)
            norm = np.linalg.norm(eps)
            if norm > 0:
                eps = eps / norm
                theta = theta * norm
        self.theta_ = theta
        self.eps_ = eps
        return self

    def theta(self, r) -> np.ndarray:
        """θ(r) component (scaled-input polynomial)."""
        if self.theta_ is None or self._scale_r is None:
            raise RuntimeError("model is not fitted")
        r = check_array_1d("r", r, min_len=1)
        return _poly_basis(self._scale_r(r), self.deg_r) @ self.theta_

    def epsilon(self, s) -> np.ndarray:
        """ε(s) component (scaled-input polynomial)."""
        if self.eps_ is None or self._scale_s is None:
            raise RuntimeError("model is not fitted")
        s = check_array_1d("s", s, min_len=1)
        return _poly_basis(self._scale_s(s), self.deg_s) @ self.eps_

    def predict(self, r, s) -> np.ndarray:
        """Evaluate θ(r)·ε(s) at the given points."""
        return self.theta(r) * self.epsilon(s)
