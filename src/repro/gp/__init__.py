"""Gaussian-process substrate (replaces BoTorch/GPyTorch).

Provides exactly the models the paper builds on:

* :class:`~repro.gp.regression.GPRegressor` — exact GP regression with
  ARD kernels and marginal-likelihood hyperparameter fitting (the
  outcome models f_1..f_5 of Algorithm 2);
* :class:`~repro.gp.preference.PreferenceGP` — pairwise-comparison
  probit GP with Laplace approximation (the preference model g of §4.2,
  after Chu & Ghahramani 2005);
* kernels with analytic marginal-likelihood gradients so fitting stays
  fast without autodiff.
"""

from repro.gp import cache
from repro.gp.cache import chol_cache
from repro.gp.kernels import Kernel, RBFKernel, Matern52Kernel
from repro.gp.regression import GPRegressor
from repro.gp.preference import PreferenceGP, ComparisonData
from repro.gp.sampling import sample_mvn

__all__ = [
    "cache",
    "chol_cache",
    "Kernel",
    "RBFKernel",
    "Matern52Kernel",
    "GPRegressor",
    "PreferenceGP",
    "ComparisonData",
    "sample_mvn",
]
