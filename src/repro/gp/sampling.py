"""Multivariate-normal sampling helpers for Monte-Carlo acquisitions."""

from __future__ import annotations

import numpy as np

from repro.utils import as_generator, check_array_1d, check_array_2d, safe_cholesky
from repro.utils.rng import RngLike


def sample_mvn(
    mean: np.ndarray, cov: np.ndarray, n_samples: int, *, rng: RngLike = None
) -> np.ndarray:
    """Draw joint samples from N(mean, cov); returns (n_samples, m).

    Uses a jittered Cholesky so near-singular posterior covariances
    (common after conditioning on dense data) sample cleanly.
    """
    mean = check_array_1d("mean", mean)
    cov = check_array_2d("cov", cov, n_cols=mean.size)
    if cov.shape[0] != mean.size:
        raise ValueError(f"cov shape {cov.shape} incompatible with mean {mean.shape}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    gen = as_generator(rng)
    ell = safe_cholesky(cov)
    z = gen.standard_normal((n_samples, mean.size))
    return mean[None, :] + z @ ell.T
