"""EUBO — Expected Utility of the Best Option (Eq. 11, Lin et al. '22).

For a candidate comparison pair (y₁, y₂), EUBO(y₁, y₂) =
E[max(g(y₁), g(y₂))] under the current preference-GP posterior.  With
(g₁, g₂) jointly Gaussian this has the classical closed form
(Clark 1961):

    E[max] = μ₁ Φ(δ/θ) + μ₂ Φ(−δ/θ) + θ φ(δ/θ),
    δ = μ₁ − μ₂,  θ = √(σ₁² + σ₂² − 2σ₁₂)

so pair selection needs no Monte Carlo at all.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import ndtr

from repro.gp.preference import PreferenceGP
from repro.obs import telemetry
from repro.utils import as_generator, check_array_2d
from repro.utils.rng import RngLike

#: √(2π), as ``scipy.stats.norm.pdf`` divides by it
_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z):
    """Standard normal density, the expression ``scipy.stats.norm.pdf`` evaluates."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def eubo_closed_form(
    mu: np.ndarray, cov: np.ndarray
) -> float:
    """E[max(g1, g2)] for a bivariate normal (mu (2,), cov (2,2))."""
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mu.shape != (2,) or cov.shape != (2, 2):
        raise ValueError(f"need bivariate inputs, got mu {mu.shape}, cov {cov.shape}")
    delta = mu[0] - mu[1]
    theta2 = cov[0, 0] + cov[1, 1] - 2.0 * cov[0, 1]
    if theta2 <= 1e-16:
        return float(max(mu[0], mu[1]))
    theta = np.sqrt(theta2)
    z = delta / theta
    return float(mu[0] * ndtr(z) + mu[1] * ndtr(-z) + theta * _norm_pdf(z))


def eubo_batch(
    mu1: np.ndarray,
    mu2: np.ndarray,
    var1: np.ndarray,
    var2: np.ndarray,
    cov12: np.ndarray,
) -> np.ndarray:
    """Vectorized Clark (1961) E[max(g1, g2)] over many bivariate normals.

    All inputs broadcast elementwise; degenerate pairs (θ² ≈ 0) reduce
    to max(μ₁, μ₂), matching :func:`eubo_closed_form`.
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    delta = mu1 - mu2
    theta2 = (
        np.asarray(var1, dtype=float)
        + np.asarray(var2, dtype=float)
        - 2.0 * np.asarray(cov12, dtype=float)
    )
    degenerate = theta2 <= 1e-16
    theta = np.sqrt(np.where(degenerate, 1.0, theta2))
    z = delta / theta
    vals = mu1 * ndtr(z) + mu2 * ndtr(-z) + theta * _norm_pdf(z)
    return np.where(degenerate, np.maximum(mu1, mu2), vals)


def eubo_for_pairs(
    model: PreferenceGP,
    items: np.ndarray,
    pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """EUBO value of each candidate pair over ``items``.

    Computes one joint posterior over all items, then reads the
    bivariate marginals per pair and scores all pairs in one
    vectorized :func:`eubo_batch` call.
    """
    items = check_array_2d("items", items)
    mean, cov = model.predict(items, return_cov=True)
    if not pairs:
        return np.empty(0)
    idx = np.asarray(pairs, dtype=int)
    i, j = idx[:, 0], idx[:, 1]
    telemetry.counter("acq.eubo_vectorized_pairs", idx.shape[0])
    return eubo_batch(mean[i], mean[j], cov[i, i], cov[j, j], cov[i, j])


def select_eubo_pair(
    model: PreferenceGP,
    items: np.ndarray,
    *,
    n_candidates: int = 200,
    rng: RngLike = None,
    exclude: set[tuple[int, int]] | None = None,
    return_value: bool = False,
) -> tuple[int, int] | tuple[int, int, float]:
    """argmax-EUBO pair among random candidate pairs of ``items``.

    ``exclude`` skips already-asked (unordered) pairs.  With
    ``return_value=True`` the winning pair's EUBO value is appended to
    the returned tuple (diagnostics record it per query).  Raises
    ``ValueError`` when fewer than two items exist or all pairs are
    excluded.
    """
    items = check_array_2d("items", items)
    n = items.shape[0]
    if n < 2:
        raise ValueError("need at least two items to form a pair")
    gen = as_generator(rng)
    excl = exclude or set()

    all_pairs: list[tuple[int, int]] = []
    max_pairs = n * (n - 1) // 2
    if max_pairs <= n_candidates:
        all_pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if (i, j) not in excl and (j, i) not in excl
        ]
    else:
        seen: set[tuple[int, int]] = set()
        attempts = 0
        while len(all_pairs) < n_candidates and attempts < 50 * n_candidates:
            i, j = gen.choice(n, 2, replace=False)
            key = (min(i, j), max(i, j))
            attempts += 1
            if key in seen or key in excl:
                continue
            seen.add(key)
            all_pairs.append((int(key[0]), int(key[1])))
    if not all_pairs:
        raise ValueError("no candidate pairs available (all excluded)")

    vals = eubo_for_pairs(model, items, all_pairs)
    best = int(np.argmax(vals))
    if return_value:
        i, j = all_pairs[best]
        return i, j, float(vals[best])
    return all_pairs[best]
