"""Covariance kernels with ARD lengthscales and analytic gradients.

All kernels expose their hyperparameters as a flat vector of *log*
parameters ``[log outputscale, log ell_1 .. log ell_d]`` so optimizers
work in an unconstrained space, plus ``gradients`` returning
``dK / d(log θ_j)`` for the marginal-likelihood gradient

    dL/dθ_j = ½ tr((α αᵀ − K⁻¹) · dK/dθ_j).

Everything is vectorized over a dimension-major ``(d, n1, n2)``
pairwise-difference tensor (:func:`pairwise_diff`): ``from_diff`` turns
it into K and, in the same pass, the per-dimension gradient terms,
never looping over samples.  Each kernel supplies only its profile in
the scaled squared distance (``_profile``); ``__call__`` and
``gradients`` are thin wrappers around ``from_diff``.

The layout puts the few input dimensions (d = 2 for the outcome GPs,
d = 5 for the preference GP) on the outer axis, so every elementwise
pass and the sum over dimensions run over contiguous ``n1·n2`` planes
instead of a length-d inner loop.  numpy adds the d planes in order,
which is also how it sums a contiguous axis shorter than 8, so for
d < 8 the results equal the ``(n1, n2, d)`` form's bit for bit.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils import check_array_2d, check_positive


def pairwise_diff(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Pairwise differences: ``out[d, i, j] = x1[i, d] − x2[j, d]``.

    Shape ``(d, n1, n2)``, built from contiguous rows of ``x1.T`` and
    ``x2.T``.  Independent of every hyperparameter, so a
    marginal-likelihood fit builds it once per training set and hands
    it to each :meth:`Kernel.from_diff` evaluation.
    """
    a = np.ascontiguousarray(x1.T)
    b = np.ascontiguousarray(x2.T)
    return a[:, :, None] - b[:, None, :]


class Kernel(abc.ABC):
    """Stationary ARD kernel with log-parameter vector interface."""

    def __init__(self, lengthscales, outputscale: float = 1.0) -> None:
        self.lengthscales = np.atleast_1d(np.asarray(lengthscales, dtype=float))
        if np.any(self.lengthscales <= 0):
            raise ValueError(f"lengthscales must be > 0, got {self.lengthscales}")
        self.outputscale = check_positive("outputscale", outputscale)

    @property
    def n_dims(self) -> int:
        return self.lengthscales.size

    # -- log-parameter vector --------------------------------------------
    def get_log_params(self) -> np.ndarray:
        """Flat vector [log outputscale, log ell_1, …] for optimizers."""
        return np.concatenate([[np.log(self.outputscale)], np.log(self.lengthscales)])

    def set_log_params(self, theta: np.ndarray) -> None:
        """Install a log-parameter vector (inverse of get_log_params)."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != 1 + self.n_dims:
            raise ValueError(
                f"expected {1 + self.n_dims} log-params, got {theta.size}"
            )
        self.outputscale = float(np.exp(theta[0]))
        self.lengthscales = np.exp(theta[1:]).copy()

    @property
    def n_params(self) -> int:
        return 1 + self.n_dims

    # -- evaluation --------------------------------------------------------
    def __call__(self, x1, x2=None) -> np.ndarray:
        x1 = check_array_2d("x1", x1, n_cols=self.n_dims)
        x2 = x1 if x2 is None else check_array_2d("x2", x2, n_cols=self.n_dims)
        return self.from_diff(pairwise_diff(x1, x2), grads=False)[0]

    def diag(self, x) -> np.ndarray:
        """Diagonal of k(x, x) — the outputscale for stationary kernels."""
        x = check_array_2d("x", x, n_cols=self.n_dims)
        return np.full(x.shape[0], self.outputscale)

    def gradients(self, x) -> list[np.ndarray]:
        """[dK/d(log outputscale), dK/d(log ell_1), ...] at K(x, x)."""
        x = check_array_2d("x", x, n_cols=self.n_dims)
        return self.from_diff(pairwise_diff(x, x))[1]

    def from_diff(
        self, diff: np.ndarray, *, grads: bool = True
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """``(K, [dK/dθ_j])`` from a :func:`pairwise_diff` tensor.

        One pass computes the covariance and, when ``grads``, its
        derivatives in the log-parameters (an empty list otherwise).
        """
        # per_dim[d, i, j] = ((x1_i − x2_j)_d / ℓ_d)², squared in place
        per_dim = diff / self.lengthscales[:, None, None]
        np.square(per_dim, out=per_dim)
        # Without grads the (d, n1, n2) tensor is dropped before the
        # O(n1·n2) work: large cross-covariances (BO candidate sets)
        # otherwise keep an extra big buffer alive, and the allocator
        # returns memory to the OS and page-faults it back on every call.
        del diff
        d2 = per_dim.sum(axis=0)
        if not grads:
            del per_dim
            return self._profile(d2, grads=False)[0], []
        k, common = self._profile(d2, grads=True)
        # d/d log σ² = K;  d/d log ℓ_d = common · (Δ_d/ℓ_d)², in place
        per_dim *= common
        return k, [k, *per_dim]

    @abc.abstractmethod
    def _profile(
        self, d2: np.ndarray, *, grads: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(k, common)`` at scaled squared distances ``d2``.

        ``common`` (``None`` without ``grads``) is the factor with
        dk/d(log ℓ_d) = common · (Δ_d/ℓ_d)².
        """


class RBFKernel(Kernel):
    """Squared-exponential: k = σ² exp(−½ Σ_d (Δ_d/ℓ_d)²)."""

    def _profile(self, d2, *, grads):
        k = np.multiply(d2, -0.5)
        np.exp(k, out=k)
        k *= self.outputscale
        return k, k


class Matern52Kernel(Kernel):
    """Matérn-5/2: k = σ² (1 + √5 r + 5r²/3) exp(−√5 r)."""

    _SQRT5 = np.sqrt(5.0)

    def _profile(self, d2, *, grads):
        # d2 is a sum of squares (never negative), so no clip before the
        # root.  Each product below is formed in place, in the operation
        # order of σ² · ((1 + sr) + sr²/3) · exp(−sr).
        sr = np.sqrt(d2)
        sr *= self._SQRT5
        decay = np.negative(sr)
        np.exp(decay, out=decay)
        one_sr = 1.0 + sr
        k = np.square(sr)
        k /= 3.0
        k += one_sr
        k *= self.outputscale
        k *= decay
        if not grads:
            return k, None
        # dk/d(log ℓ_d) = σ² (5/3)(1 + √5 r) exp(−√5 r) · (Δ_d/ℓ_d)²
        one_sr *= self.outputscale * (5.0 / 3.0)
        one_sr *= decay
        return k, one_sr
