"""Pairwise-preference Gaussian process with Laplace approximation.

Implements §4.2 of the paper, following Chu & Ghahramani (2005): a latent
utility ``g ~ GP(0, K)`` over outcome vectors, observed only through
pairwise comparisons with the probit likelihood

    p(y⁽¹⁾ ≻ y⁽²⁾ | g) = Φ((g(y⁽¹⁾) − g(y⁽²⁾)) / (√2 λ))      (Eq. 9)

The posterior over g at the compared items is approximated by Laplace:
a damped Newton ascent finds the MAP ĝ, and the local curvature
``(K⁻¹ + AᵀWA)⁻¹`` provides the Gaussian covariance.  Predictions at
new outcome vectors use the standard Laplace-GP formulas, with the
singular-Hessian-safe identity ``(K + H⁻¹)⁻¹ = H(I + KH)⁻¹``.

The Newton loop and its line search evaluate the probit terms hundreds
of times per fit, so they call ``scipy.special.log_ndtr``/``ndtr`` and
the normal log-density expression directly — the functions
``scipy.stats.norm`` evaluates after its argument checks, giving
bit-identical values — and solve against K's factor with
:func:`~repro.gp.regression.cho_solve_lower`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr, ndtr

from repro.gp.cache import cache_key, chol_cache
from repro.gp.kernels import Kernel, RBFKernel
from repro.gp.regression import cho_solve_lower
from repro.utils import check_array_2d, check_positive, safe_cholesky

#: log √(2π), as ``scipy.stats.norm.logpdf`` computes it
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))


@dataclass
class ComparisonData:
    """Items (outcome vectors) plus comparison pairs over them.

    ``pairs[v] = (w, l)`` records that item ``w`` was preferred to item
    ``l`` in the v-th query (𝒫_V in the paper).
    """

    items: np.ndarray  # (n, d)
    pairs: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.items = check_array_2d("items", self.items)
        for w, l in self.pairs:
            self._check_pair(w, l)

    def _check_pair(self, winner: int, loser: int) -> None:
        n = self.items.shape[0]
        if not (0 <= winner < n and 0 <= loser < n):
            raise ValueError(f"pair ({winner}, {loser}) out of range for {n} items")
        if winner == loser:
            raise ValueError(f"pair compares item {winner} with itself")

    @property
    def n_items(self) -> int:
        return self.items.shape[0]

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def add_items(self, new_items) -> np.ndarray:
        """Append items; returns their indices."""
        new_items = check_array_2d("new_items", new_items, n_cols=self.items.shape[1])
        start = self.n_items
        self.items = np.vstack([self.items, new_items])
        return np.arange(start, self.n_items)

    def add_comparison(self, winner: int, loser: int) -> None:
        """Record that item ``winner`` was preferred to ``loser``."""
        self._check_pair(winner, loser)
        self.pairs.append((int(winner), int(loser)))

    def pair_matrix(self) -> np.ndarray:
        """Signed incidence matrix A (V, n): +1 winner, −1 loser."""
        a = np.zeros((self.n_pairs, self.n_items))
        for v, (w, l) in enumerate(self.pairs):
            a[v, w] = 1.0
            a[v, l] = -1.0
        return a


class PreferenceGP:
    """Probit pairwise GP (the preference surrogate ĝ of the paper).

    Parameters
    ----------
    kernel:
        Kernel over outcome space; default RBF with median-heuristic
        lengthscales (set at fit time).
    noise_scale:
        λ in Eq. 9 — comparison noise; smaller = more decisive
        decision maker.
    max_newton_iter, tol:
        Damped-Newton stopping controls for the MAP search.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        noise_scale: float = 0.1,
        max_newton_iter: int = 100,
        tol: float = 1e-8,
    ) -> None:
        self.kernel = kernel
        self.noise_scale = check_positive("noise_scale", noise_scale)
        self.max_newton_iter = int(max_newton_iter)
        self.tol = float(tol)
        #: Whether the last Newton MAP search stopped at its own
        #: criterion (step below tol / no ascent left) rather than the
        #: iteration cap.  ``False`` means the MAP is approximate.
        self.converged: bool = False
        self._data: ComparisonData | None = None
        self._train_items: np.ndarray | None = None
        self._g_map: np.ndarray | None = None
        self._b: np.ndarray | None = None  # K⁻¹ ĝ at the optimum
        self._h: np.ndarray | None = None  # AᵀWA at the MAP
        self._k_chol: np.ndarray | None = None
        self._k: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._g_map is not None

    def _default_kernel(self, items: np.ndarray) -> Kernel:
        """RBF with median-distance lengthscales (per-dimension)."""
        d = items.shape[1]
        ell = np.empty(d)
        for j in range(d):
            diffs = np.abs(items[:, None, j] - items[None, :, j])
            med = np.median(diffs[diffs > 0]) if np.any(diffs > 0) else 1.0
            ell[j] = med if med > 0 else 1.0
        return RBFKernel(ell, outputscale=1.0)

    def _loglik_terms(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log Φ(z), u = φ/Φ, w = u² + z·u) computed stably."""
        logcdf = log_ndtr(z)
        u = np.exp((-z**2 / 2.0 - _LOG_SQRT_2PI) - logcdf)
        w = u * (u + z)
        return logcdf, u, np.clip(w, 1e-12, None)

    def fit(self, data: ComparisonData) -> "PreferenceGP":
        """Laplace MAP fit over ``data``'s items and comparisons."""
        if data.n_pairs == 0:
            raise ValueError("need at least one comparison to fit")
        self._data = data
        # Snapshot the item matrix: ``data`` is shared and mutable (the
        # learner keeps appending BO-observed outcomes), and a model
        # kept past a rejected refit must stay consistent with the
        # items it was actually conditioned on.
        items = np.array(data.items, dtype=float, copy=True)
        self._train_items = items
        if self.kernel is None or self.kernel.n_dims != items.shape[1]:
            self.kernel = self._default_kernel(items)
        n = data.n_items

        def _compute() -> tuple[np.ndarray, np.ndarray]:
            kk = self.kernel(items) + 1e-8 * np.eye(n)
            return kk, safe_cholesky(kk)

        # The learner refits after every comparison while the item set
        # usually stays put — K and its factor depend only on
        # (kernel, items), so the shared cache turns those refits from
        # O(n³) into O(1) lookups.
        k, k_chol = chol_cache.get_or_compute(
            cache_key(self.kernel, 1e-8, items, tag="pref"), _compute
        )
        a = data.pair_matrix()
        s = np.sqrt(2.0) * self.noise_scale
        g = np.zeros(n)

        def psi(gv: np.ndarray) -> float:
            z = (a @ gv) / s
            logcdf, _, _ = self._loglik_terms(z)
            quad = gv @ cho_solve_lower(k_chol, gv)
            return float(np.sum(logcdf) - 0.5 * quad)

        cur = psi(g)
        self.converged = False
        for _ in range(self.max_newton_iter):
            z = (a @ g) / s
            _, u, w = self._loglik_terms(z)
            b = a.T @ (u / s)  # ∇ log-lik
            h = (a.T * (w / s**2)) @ a  # −Hessian of log-lik
            # Newton direction: (K⁻¹ + H)⁻¹ (b − K⁻¹g) = (I + KH)⁻¹(Kb − g)
            rhs = k @ b - g
            direction = np.linalg.solve(np.eye(n) + k @ h, rhs)
            # Backtracking line search on Ψ.
            step = 1.0
            improved = False
            for _ in range(30):
                cand = g + step * direction
                val = psi(cand)
                if val > cur:
                    g, cur = cand, val
                    improved = True
                    break
                step *= 0.5
            if not improved or float(np.linalg.norm(step * direction)) < self.tol:
                self.converged = True
                break

        z = (a @ g) / s
        _, u, w = self._loglik_terms(z)
        self._g_map = g
        self._b = a.T @ (u / s)
        self._h = (a.T * (w / s**2)) @ a
        self._k = k
        self._k_chol = k_chol
        return self

    # ------------------------------------------------------------------
    def predict(self, y_new, *, return_cov: bool = False):
        """Posterior mean (and variance/covariance) of g at ``y_new``.

        Mean uses μ* = K*ᵀ K⁻¹ ĝ = K*ᵀ b̂ (exact at the MAP);
        covariance uses K** − K*ᵀ H (I + KH)⁻¹ K*.
        """
        if self._g_map is None or self._train_items is None:
            raise RuntimeError("model is not fitted")
        assert self.kernel is not None and self._k is not None
        y_new = check_array_2d("y_new", y_new, n_cols=self._train_items.shape[1])
        k_star = self.kernel(self._train_items, y_new)  # (n, m)
        mean = k_star.T @ self._b
        m_mat = self._h @ np.linalg.solve(
            np.eye(self._k.shape[0]) + self._k @ self._h, k_star
        )
        if return_cov:
            cov = self.kernel(y_new) - k_star.T @ m_mat
            # symmetrize against roundoff
            cov = 0.5 * (cov + cov.T)
            return mean, cov
        var = np.clip(
            self.kernel.diag(y_new) - np.sum(k_star * m_mat, axis=0), 1e-12, None
        )
        return mean, var

    def predict_pair_probability(self, y1, y2) -> np.ndarray:
        """P(y1 ≻ y2) under the posterior, marginalizing latent noise.

        For jointly Gaussian (g1, g2), the probit integral has the closed
        form Φ(μ_Δ / √(2λ² + σ_Δ²)).  All pairs go through one joint GP
        predict over the stacked points.
        """
        y1 = check_array_2d("y1", y1)
        y2 = check_array_2d("y2", y2)
        if y1.shape != y2.shape:
            raise ValueError(f"y1 {y1.shape} and y2 {y2.shape} must match")
        n = y1.shape[0]
        mean, cov = self.predict(np.vstack([y1, y2]), return_cov=True)
        idx = np.arange(n)
        mu_d = mean[idx] - mean[n + idx]
        var_d = np.clip(
            cov[idx, idx] + cov[n + idx, n + idx] - 2.0 * cov[idx, n + idx],
            0.0,
            None,
        )
        return ndtr(mu_d / np.sqrt(2 * self.noise_scale**2 + var_d))
