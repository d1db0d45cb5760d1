"""Exact Gaussian-process regression with marginal-likelihood fitting.

The outcome models of Algorithm 2 (line 4, "Fit the outcome functions
f by GP models") are standard exact GPs.  This implementation provides:

* y standardization (zero mean / unit variance internally);
* ARD kernel hyperparameters + observation noise, fitted by maximizing
  the log marginal likelihood with analytic gradients and multi-restart
  L-BFGS-B (``scipy.optimize.minimize``);
* predictive mean / variance / full covariance, and joint posterior
  sampling for the Monte-Carlo acquisition functions.

All heavy math is Cholesky-based: one ``safe_cholesky`` per fit
evaluation, triangular solves for α and the predictive terms.

The marginal-likelihood objective is the hot loop (hundreds of L-BFGS-B
evaluations per fit), so it does only the arithmetic it needs: the
pairwise-difference tensor of the training set is built once per fit
and passed in, each evaluation makes one kernel-plus-gradient pass
(:meth:`Kernel.from_diff`), and α and K⁻¹ come straight from LAPACK's
``dpotrs`` (:func:`cho_solve_lower`, the routine ``cho_solve`` wraps).
The results are bit-identical to the wrapped calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrs
from scipy.optimize import minimize

from repro.gp.cache import cache_key, chol_cache
from repro.gp.kernels import Kernel, Matern52Kernel, pairwise_diff
from repro.obs import telemetry
from repro.utils import as_generator, check_array_1d, check_array_2d, safe_cholesky
from repro.utils.rng import RngLike

#: Bounds (in log space) keeping hyperparameters sane during fitting.
_LOG_BOUNDS = (-6.0, 6.0)
_LOG_NOISE_BOUNDS = (-12.0, 2.0)


def cho_solve_lower(ell: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L Lᵀ) x = b for a lower Cholesky factor ``ell``.

    The same ``dpotrs`` call ``scipy.linalg.cho_solve((ell, True), b)``
    makes for float64 inputs, without its dispatch layers, and with the
    same guarantees: non-finite inputs and a nonzero LAPACK ``info``
    raise ``ValueError``.
    """
    if not (np.isfinite(ell).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(ell, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


@dataclass
class _FitState:
    """Cached Cholesky pieces for predictions."""

    chol: np.ndarray  # L with L Lᵀ = K + σ_n² I
    alpha: np.ndarray  # (K + σ_n² I)⁻¹ y


class GPRegressor:
    """Exact GP regression model.

    Parameters
    ----------
    kernel:
        Covariance kernel; default Matérn-5/2 with unit ARD lengthscales
        (dimension inferred at :meth:`fit` if not supplied).
    noise:
        Initial observation-noise variance (fitted unless
        ``optimize=False`` at fit time).
    normalize_y:
        Standardize targets internally (recommended).
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        noise: float = 1e-2,
        normalize_y: bool = True,
    ) -> None:
        self.kernel = kernel
        self.noise = float(noise)
        if self.noise <= 0:
            raise ValueError(f"noise must be > 0, got {noise}")
        self.normalize_y = normalize_y
        self._x: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0
        self._state: _FitState | None = None

    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    @property
    def n_train(self) -> int:
        return 0 if self._x is None else self._x.shape[0]

    def _require_fitted(self) -> _FitState:
        if self._state is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self._state

    # ------------------------------------------------------------------
    def _neg_mll_and_grad(
        self, theta: np.ndarray, diff: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood and gradient in log-params.

        theta = [kernel log-params..., log noise]; ``diff`` is
        ``pairwise_diff(x, x)`` of the training inputs.
        """
        assert self.kernel is not None and self._y is not None
        self.kernel.set_log_params(theta[:-1])
        noise = float(np.exp(theta[-1]))
        n = self._y.shape[0]
        k, grads = self.kernel.from_diff(diff)
        k = k + noise * np.eye(n)
        try:
            ell = safe_cholesky(k)
        except np.linalg.LinAlgError:
            return 1e25, np.zeros_like(theta)
        alpha = cho_solve_lower(ell, self._y)
        mll = (
            -0.5 * float(self._y @ alpha)
            - float(np.sum(np.log(np.diag(ell))))
            - 0.5 * n * np.log(2 * np.pi)
        )
        # gradient: ½ tr((ααᵀ − K⁻¹) dK/dθ)
        k_inv = cho_solve_lower(ell, np.eye(n))
        inner = np.outer(alpha, alpha) - k_inv
        grad = np.empty_like(theta)
        for j, dk in enumerate(grads):
            grad[j] = 0.5 * float(np.sum(inner * dk))
        # noise: dK/d(log σ_n²) = σ_n² I
        grad[-1] = 0.5 * noise * float(np.trace(inner))
        return -mll, -grad

    def fit(
        self,
        x,
        y,
        *,
        optimize: bool = True,
        n_restarts: int = 2,
        rng: RngLike = 0,
    ) -> "GPRegressor":
        """Condition on data, optionally optimizing hyperparameters.

        Parameters
        ----------
        x, y:
            Training inputs ``(n, d)`` and targets ``(n,)``.
        optimize:
            Maximize the marginal likelihood (multi-restart L-BFGS-B).
        n_restarts:
            Extra random restarts beyond the current parameter values.
        """
        x = check_array_2d("x", x)
        y = check_array_1d("y", y, min_len=1)
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if self.kernel is None:
            self.kernel = Matern52Kernel(np.ones(x.shape[1]))
        if x.shape[1] != self.kernel.n_dims:
            raise ValueError(
                f"x has {x.shape[1]} dims but kernel expects {self.kernel.n_dims}"
            )
        self._x = x
        self._y_raw = y
        if self.normalize_y:
            self._y_mean = float(np.mean(y))
            self._y_std = float(np.std(y)) or 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        self._y = (y - self._y_mean) / self._y_std

        if optimize and x.shape[0] >= 3:
            self._optimize_hyperparams(n_restarts=n_restarts, rng=rng)

        self._refresh_state()
        return self

    def _optimize_hyperparams(self, *, n_restarts: int, rng: RngLike) -> None:
        assert self.kernel is not None and self._x is not None
        gen = as_generator(rng)
        n_kp = self.kernel.n_params
        bounds = [_LOG_BOUNDS] * n_kp + [_LOG_NOISE_BOUNDS]

        starts = [np.concatenate([self.kernel.get_log_params(), [np.log(self.noise)]])]
        for _ in range(max(0, n_restarts)):
            starts.append(
                np.concatenate(
                    [
                        gen.uniform(-1.5, 1.5, n_kp),
                        [gen.uniform(-6.0, -1.0)],
                    ]
                )
            )

        # Hyperparameter-free, so built once per fit rather than once per
        # evaluation; not kept on the model (n² d floats per GP).
        diff = pairwise_diff(self._x, self._x)
        best_val = np.inf
        best_theta = starts[0]
        for s in starts:
            res = minimize(
                self._neg_mll_and_grad,
                s,
                args=(diff,),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
                options={"maxiter": 200},
            )
            if res.fun < best_val:
                best_val = float(res.fun)
                best_theta = res.x
        self.kernel.set_log_params(best_theta[:-1])
        self.noise = float(np.exp(best_theta[-1]))

    def _compute_chol(self) -> np.ndarray:
        """Factorize K + σ_n²I with the jitter-retry ladder."""
        assert self.kernel is not None and self._x is not None
        n = self._x.shape[0]
        k = self.kernel(self._x) + self.noise * np.eye(n)
        # ``safe_cholesky`` already escalates its own jitter; optimizer-
        # chosen hyperparameters (near-zero noise, extreme lengthscales)
        # can still defeat it, so retry with successively larger
        # explicit diagonal inflation before giving up — the predictions
        # get slightly smoother rather than the whole run dying.
        scale = float(np.mean(np.diag(k))) or 1.0
        extra = 0.0
        last_exc: np.linalg.LinAlgError | None = None
        for _ in range(4):
            try:
                return safe_cholesky(k + extra * np.eye(n) if extra else k)
            except np.linalg.LinAlgError as exc:
                last_exc = exc
                telemetry.counter("gp.cholesky_jitter_retries")
                extra = extra * 100.0 if extra else 1e-2 * scale
        assert last_exc is not None
        raise last_exc

    def _chol_key(self) -> tuple:
        assert self.kernel is not None and self._x is not None
        return cache_key(self.kernel, self.noise, self._x, tag="reg")

    def _refresh_state(self) -> None:
        assert self.kernel is not None and self._x is not None and self._y is not None
        # The factorization depends only on (hyperparams, noise, X) —
        # α is y-dependent but O(n²), so it is recomputed per call.
        ell = chol_cache.get_or_compute(self._chol_key(), self._compute_chol)
        alpha = cho_solve_lower(ell, self._y)
        self._state = _FitState(chol=ell, alpha=alpha)

    # ------------------------------------------------------------------
    def predict(
        self, x_new, *, return_cov: bool = False, include_noise: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance (or full covariance) at ``x_new``.

        Returns ``(mean, var)`` with shapes ``(m,)``/``(m,)``, or
        ``(mean, cov)`` with cov ``(m, m)`` when ``return_cov=True``.
        ``include_noise`` adds the observation noise to the variance
        (predictive distribution of a *measurement* rather than of f).
        """
        st = self._require_fitted()
        assert self.kernel is not None and self._x is not None
        x_new = check_array_2d("x_new", x_new, n_cols=self.kernel.n_dims)
        k_star = self.kernel(self._x, x_new)  # (n, m)
        mean = k_star.T @ st.alpha
        v = solve_triangular(st.chol, k_star, lower=True)  # (n, m)
        if return_cov:
            cov = self.kernel(x_new) - v.T @ v
            if include_noise:
                cov = cov + self.noise * np.eye(x_new.shape[0])
            out: np.ndarray = cov
        else:
            var = np.clip(self.kernel.diag(x_new) - np.sum(v**2, axis=0), 1e-12, None)
            if include_noise:
                var = var + self.noise
            out = var
        scale = self._y_std
        mean = mean * scale + self._y_mean
        out = out * scale**2
        return mean, out

    def sample_posterior(
        self, x_new, n_samples: int = 1, *, rng: RngLike = None
    ) -> np.ndarray:
        """Joint posterior samples of f at ``x_new``; shape (n_samples, m)."""
        from repro.gp.sampling import sample_mvn

        mean, cov = self.predict(x_new, return_cov=True)
        return sample_mvn(mean, cov, n_samples, rng=rng)

    def log_marginal_likelihood(self) -> float:
        """MLL at the current hyperparameters (standardized-y scale)."""
        self._require_fitted()
        assert self.kernel is not None and self._x is not None
        theta = np.concatenate([self.kernel.get_log_params(), [np.log(self.noise)]])
        neg, _ = self._neg_mll_and_grad(theta, pairwise_diff(self._x, self._x))
        return -neg

    def hyperparameters(self) -> dict[str, object]:
        """JSON-safe snapshot of the fitted model's hyperparameters.

        Keys: ``kernel``, ``lengthscales``, ``outputscale``, ``noise``,
        ``n_train``, and — when fitted — ``log_marginal_likelihood``.
        This is what :mod:`repro.obs.diagnostics` emits per outcome GP.
        """
        out: dict[str, object] = {"noise": float(self.noise)}
        if self.kernel is not None:
            out["kernel"] = type(self.kernel).__name__
            out["lengthscales"] = [
                float(v) for v in np.atleast_1d(self.kernel.lengthscales)
            ]
            out["outputscale"] = float(self.kernel.outputscale)
        if self._x is not None:
            out["n_train"] = int(self._x.shape[0])
        if self.is_fitted:
            out["log_marginal_likelihood"] = float(self.log_marginal_likelihood())
        return out

    def log_predictive_density(self, x_test, y_test) -> float:
        """Mean log p(y_test | x_test, data) under the predictive marginals.

        The proper scoring rule for probabilistic regression — unlike
        R² it punishes over/under-confident variance, not just mean
        error.  Uses the noisy predictive (observation) distribution.
        """
        self._require_fitted()
        x_test = check_array_2d("x_test", x_test)
        y_test = check_array_1d("y_test", y_test, min_len=1)
        if x_test.shape[0] != y_test.shape[0]:
            raise ValueError(
                f"x_test has {x_test.shape[0]} rows but y_test has {y_test.shape[0]}"
            )
        mean, var = self.predict(x_test, include_noise=True)
        ll = -0.5 * (np.log(2 * np.pi * var) + (y_test - mean) ** 2 / var)
        return float(np.mean(ll))

    def update(self, x_new, y_new) -> "GPRegressor":
        """Condition on appended observations in place (no re-optimize).

        Extends the existing Cholesky factor by a block row — O(n²m)
        for m appended points instead of the O((n+m)³) from-scratch
        refactorization — then recomputes the y-standardization and α
        over the full data (O(n²)), so the resulting posterior matches
        ``fit(optimize=False)`` on the concatenated data to
        floating-point roundoff.

        Falls back to that full refit (counted as
        ``gp.rank1_fallbacks``) when the Schur complement is not
        positive definite — which only happens when the original factor
        needed extra jitter or the appended points (numerically)
        duplicate training inputs.
        """
        st = self._require_fitted()
        assert self.kernel is not None and self._x is not None
        assert self._y_raw is not None
        x_new = check_array_2d("x_new", x_new, n_cols=self.kernel.n_dims)
        y_new = check_array_1d("y_new", y_new, min_len=1)
        if x_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"x_new has {x_new.shape[0]} rows but y_new has {y_new.shape[0]}"
            )
        x_all = np.vstack([self._x, x_new])
        y_all = np.concatenate([self._y_raw, y_new])

        n, m = self._x.shape[0], x_new.shape[0]
        k_cross = self.kernel(self._x, x_new)  # (n, m)
        k_new = self.kernel(x_new) + self.noise * np.eye(m)
        l12 = solve_triangular(st.chol, k_cross, lower=True)  # (n, m)
        schur = k_new - l12.T @ l12
        try:
            l22 = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            telemetry.counter("gp.rank1_fallbacks")
            return self.fit(x_all, y_all, optimize=False)
        ell = np.zeros((n + m, n + m))
        ell[:n, :n] = st.chol
        ell[n:, :n] = l12.T
        ell[n:, n:] = l22
        telemetry.counter("gp.rank1_updates")

        self._x = x_all
        self._y_raw = y_all
        if self.normalize_y:
            self._y_mean = float(np.mean(y_all))
            self._y_std = float(np.std(y_all)) or 1.0
        self._y = (y_all - self._y_mean) / self._y_std
        alpha = cho_solve_lower(ell, self._y)
        self._state = _FitState(chol=ell, alpha=alpha)
        # Seed the shared cache so a later from-scratch fit on the same
        # (hyperparams, data) reuses this factor instead of refactoring.
        chol_cache.put(self._chol_key(), ell)
        return self
