"""Bit-identity of the GP hot loops against their reference forms.

The marginal-likelihood objective, the kernels and the probit terms of
the preference GP are written to do only the arithmetic they need (one
kernel-plus-gradient pass, direct ``dpotrs`` solves, ``scipy.special``
instead of ``scipy.stats.norm``).  PaMO's decisions must not move, so
every comparison here is ``np.array_equal``, not a tolerance: each
oracle below is the straightforward form written against the public
kernel API, ``scipy.linalg.cho_solve`` and ``scipy.stats.norm``.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve
from scipy.stats import norm

from repro.bo.eubo import eubo_batch, eubo_closed_form
from repro.gp import (
    ComparisonData,
    GPRegressor,
    Matern32Kernel,
    Matern52Kernel,
    PreferenceGP,
    ProductKernel,
    RBFKernel,
    SumKernel,
)
from repro.gp.kernels import pairwise_diff
from repro.utils import safe_cholesky

Z_GRID = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-37.5, 0.0, -0.0, 38.25]])


# -- reference kernels: per-call squared differences, K and dK built apart ----
def _scaled_diffsq(x1, x2, ell):
    diff = x1[:, None, :] - x2[None, :, :]
    return (diff / ell) ** 2


def _ref_rbf(kern, x):
    per_dim = _scaled_diffsq(x, x, kern.lengthscales)
    k = kern.outputscale * np.exp(-0.5 * per_dim.sum(axis=-1))
    return k, [k] + [k * per_dim[..., d] for d in range(kern.n_dims)]


def _ref_matern52(kern, x):
    per_dim = _scaled_diffsq(x, x, kern.lengthscales)
    sr = np.sqrt(5.0) * np.sqrt(np.clip(per_dim.sum(axis=-1), 0.0, None))
    k = kern.outputscale * (1.0 + sr + sr**2 / 3.0) * np.exp(-sr)
    common = kern.outputscale * (5.0 / 3.0) * (1.0 + sr) * np.exp(-sr)
    return k, [k] + [common * per_dim[..., d] for d in range(kern.n_dims)]


def _ref_matern32(kern, x):
    per_dim = _scaled_diffsq(x, x, kern.lengthscales)
    sr = np.sqrt(3.0) * np.sqrt(np.clip(per_dim.sum(axis=-1), 0.0, None))
    k = kern.outputscale * (1.0 + sr) * np.exp(-sr)
    common = kern.outputscale * 3.0 * np.exp(-sr)
    return k, [k] + [common * per_dim[..., d] for d in range(kern.n_dims)]


_REF = {RBFKernel: _ref_rbf, Matern52Kernel: _ref_matern52, Matern32Kernel: _ref_matern32}


def _ref_kernel(kern, x):
    if isinstance(kern, SumKernel):
        (kl, gl), (kr, gr) = _ref_kernel(kern.left, x), _ref_kernel(kern.right, x)
        return kl + kr, gl + gr
    if isinstance(kern, ProductKernel):
        (kl, gl), (kr, gr) = _ref_kernel(kern.left, x), _ref_kernel(kern.right, x)
        return kl * kr, [g * kr for g in gl] + [kl * g for g in gr]
    return _REF[type(kern)](kern, x)


def _kernels(d):
    return [
        RBFKernel(np.linspace(0.4, 1.6, d), outputscale=1.7),
        Matern52Kernel(np.linspace(0.7, 1.3, d), outputscale=0.6),
        Matern32Kernel(np.linspace(1.1, 0.5, d), outputscale=2.3),
        SumKernel(
            RBFKernel(np.full(d, 0.8), outputscale=1.5), Matern52Kernel(np.full(d, 1.4))
        ),
        ProductKernel(
            Matern32Kernel(np.full(d, 0.9)), RBFKernel(np.full(d, 2.0), outputscale=0.4)
        ),
    ]


@pytest.mark.parametrize("idx", range(5), ids=["rbf", "m52", "m32", "sum", "product"])
class TestKernelFromDiff:
    def test_matches_call_gradients_and_reference(self, idx, rng):
        x = rng.uniform(0.0, 1.0, (23, 5))
        kern = _kernels(5)[idx]
        k, grads = kern.from_diff(pairwise_diff(x, x))
        ref_k, ref_grads = _ref_kernel(kern, x)
        assert np.array_equal(k, kern(x))
        assert np.array_equal(k, ref_k)
        assert len(grads) == len(ref_grads) == kern.n_params
        for g, via_public, ref in zip(grads, kern.gradients(x), ref_grads):
            assert np.array_equal(g, via_public)
            assert np.array_equal(g, ref)

    def test_cross_covariance_and_no_grads(self, idx, rng):
        a, b = rng.normal(size=(7, 3)), rng.normal(size=(11, 3))
        kern = _kernels(3)[idx]
        k, grads = kern.from_diff(pairwise_diff(a, b), grads=False)
        assert grads == []
        assert k.shape == (7, 11)
        assert np.array_equal(k, kern(a, b))


# -- the marginal-likelihood objective ----------------------------------------
def _ref_neg_mll_and_grad(model, theta):
    """The objective evaluated through ``kernel(x)``, ``gradients(x)`` and ``cho_solve``."""
    model.kernel.set_log_params(theta[:-1])
    noise = float(np.exp(theta[-1]))
    n = model._x.shape[0]
    k = model.kernel(model._x) + noise * np.eye(n)
    try:
        ell = safe_cholesky(k)
    except np.linalg.LinAlgError:
        return 1e25, np.zeros_like(theta)
    alpha = cho_solve((ell, True), model._y)
    mll = (
        -0.5 * float(model._y @ alpha)
        - float(np.sum(np.log(np.diag(ell))))
        - 0.5 * n * np.log(2 * np.pi)
    )
    k_inv = cho_solve((ell, True), np.eye(n))
    inner = np.outer(alpha, alpha) - k_inv
    grads = model.kernel.gradients(model._x)
    grad = np.empty_like(theta)
    for j, dk in enumerate(grads):
        grad[j] = 0.5 * float(np.sum(inner * dk))
    grad[-1] = 0.5 * noise * float(np.trace(inner))
    return -mll, -grad


def _fitted(kernel, n=40, d=5, seed=3):
    gen = np.random.default_rng(seed)
    x = gen.uniform(0.0, 1.0, (n, d))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 - 0.5 * x[:, 2] + gen.normal(0, 0.05, n)
    return GPRegressor(kernel).fit(x, y, optimize=False)


class TestNegMllAndGrad:
    @pytest.mark.parametrize("idx", range(5), ids=["rbf", "m52", "m32", "sum", "product"])
    def test_random_theta_bit_identical(self, idx):
        model = _fitted(_kernels(5)[idx])
        diff = pairwise_diff(model._x, model._x)
        gen = np.random.default_rng(idx)
        for _ in range(12):
            theta = np.concatenate(
                [gen.uniform(-3.0, 3.0, model.kernel.n_params), [gen.uniform(-12.0, 2.0)]]
            )
            val, grad = model._neg_mll_and_grad(theta, diff)
            ref_val, ref_grad = _ref_neg_mll_and_grad(model, theta)
            assert val == ref_val
            assert np.array_equal(grad, ref_grad)

    def test_failed_cholesky_returns_penalty(self):
        class _Negated(Matern52Kernel):
            """Matérn-5/2 with K negated: no jitter makes it positive definite."""

            def from_diff(self, diff, *, grads=True):
                k, g = super().from_diff(diff, grads=grads)
                return -k, g

        model = GPRegressor(_Negated(np.ones(5)))
        model._x = _fitted(Matern52Kernel(np.ones(5)))._x
        model._y = np.linspace(-1.0, 1.0, model._x.shape[0])
        theta = np.array([0.3, -0.2, 0.1, 0.0, 0.5, -0.4, -4.0])
        val, grad = model._neg_mll_and_grad(theta, pairwise_diff(model._x, model._x))
        assert val == 1e25
        assert np.array_equal(grad, np.zeros_like(theta))
        assert _ref_neg_mll_and_grad(model, theta)[0] == 1e25

    def test_non_finite_factor_raises_like_cho_solve(self):
        model = _fitted(Matern52Kernel(np.ones(5)))
        theta = np.array([np.nan, 0.0, 0.0, 0.0, 0.0, 0.0, -3.0])
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            _ref_neg_mll_and_grad(model, theta)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            model._neg_mll_and_grad(theta, pairwise_diff(model._x, model._x))

    def test_fit_is_bit_identical_to_reference_objective(self, monkeypatch):
        gen = np.random.default_rng(11)
        x = gen.uniform(0.0, 1.0, (30, 3))
        y = np.cos(4.0 * x[:, 0]) * x[:, 1] + gen.normal(0, 0.02, 30)
        fast = GPRegressor().fit(x, y, n_restarts=2, rng=5)
        monkeypatch.setattr(
            GPRegressor,
            "_neg_mll_and_grad",
            lambda self, theta, diff: _ref_neg_mll_and_grad(self, theta),
        )
        ref = GPRegressor().fit(x, y, n_restarts=2, rng=5)
        assert np.array_equal(fast.kernel.get_log_params(), ref.kernel.get_log_params())
        assert fast.noise == ref.noise
        x_test = gen.uniform(0.0, 1.0, (9, 3))
        for a, b in zip(fast.predict(x_test), ref.predict(x_test)):
            assert np.array_equal(a, b)


# -- probit terms of the preference GP and EUBO --------------------------------
class TestProbitTerms:
    def test_loglik_terms_match_scipy_stats(self):
        logcdf, u, w = PreferenceGP()._loglik_terms(Z_GRID)
        ref_logcdf = norm.logcdf(Z_GRID)
        ref_u = np.exp(norm.logpdf(Z_GRID) - ref_logcdf)
        ref_w = np.clip(ref_u * (ref_u + Z_GRID), 1e-12, None)
        assert np.array_equal(logcdf, ref_logcdf)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(w, ref_w)

    def test_eubo_batch_matches_scipy_stats(self):
        gen = np.random.default_rng(2)
        theta = gen.uniform(0.05, 2.0, Z_GRID.size)
        mu2 = gen.normal(size=Z_GRID.size)
        mu1 = mu2 + Z_GRID * theta
        var1 = var2 = theta**2 / 2.0
        cov12 = np.zeros_like(theta)
        got = eubo_batch(mu1, mu2, var1, var2, cov12)
        th = np.sqrt(var1 + var2 - 2.0 * cov12)
        z = (mu1 - mu2) / th
        ref = mu1 * norm.cdf(z) + mu2 * norm.cdf(-z) + th * norm.pdf(z)
        assert np.array_equal(got, ref)
        for i in range(0, Z_GRID.size, 400):
            mu = np.array([mu1[i], mu2[i]])
            cov = np.array([[var1[i], 0.0], [0.0, var2[i]]])
            zi = (mu[0] - mu[1]) / np.sqrt(var1[i] + var2[i])
            ref_i = float(
                mu[0] * norm.cdf(zi) + mu[1] * norm.cdf(-zi)
                + np.sqrt(var1[i] + var2[i]) * norm.pdf(zi)
            )
            assert eubo_closed_form(mu, cov) == ref_i

    @pytest.mark.parametrize("noise_scale", [0.1, 1e-3])
    def test_pair_probability_matches_scipy_stats(self, noise_scale):
        gen = np.random.default_rng(4)
        items = gen.uniform(0.0, 1.0, (14, 3))
        util = -np.sum((items - 0.4) ** 2, axis=1)
        data = ComparisonData(items=items)
        for _ in range(30):
            i, j = gen.choice(14, 2, replace=False)
            data.add_comparison(*((i, j) if util[i] >= util[j] else (j, i)))
        model = PreferenceGP(noise_scale=noise_scale).fit(data)
        y1, y2 = gen.uniform(0.0, 1.0, (60, 3)), gen.uniform(0.0, 1.0, (60, 3))
        mean, cov = model.predict(np.vstack([y1, y2]), return_cov=True)
        idx = np.arange(60)
        mu_d = mean[idx] - mean[60 + idx]
        var_d = np.clip(
            cov[idx, idx] + cov[60 + idx, 60 + idx] - 2.0 * cov[idx, 60 + idx], 0.0, None
        )
        z = mu_d / np.sqrt(2 * noise_scale**2 + var_d)
        assert np.array_equal(model.predict_pair_probability(y1, y2), norm.cdf(z))
        for i in range(5):  # the pair-at-a-time predict form, exactly
            m, c = model.predict(np.vstack([y1[i], y2[i]]), return_cov=True)
            v = max(c[0, 0] + c[1, 1] - 2 * c[0, 1], 0.0)
            p_i = model.predict_pair_probability(y1[i : i + 1], y2[i : i + 1])[0]
            assert p_i == norm.cdf((m[0] - m[1]) / np.sqrt(2 * noise_scale**2 + v))

    def test_pair_probability_tails_match_scipy_stats(self, monkeypatch):
        # with λ = 1/√2 and a zero posterior covariance, z = μ₁ − μ₂ exactly
        z = np.linspace(-40.0, 40.0, 801)
        model = PreferenceGP(noise_scale=np.sqrt(0.5))
        mean = np.concatenate([z, np.zeros_like(z)])
        cov = np.zeros((2 * z.size, 2 * z.size))
        monkeypatch.setattr(model, "predict", lambda y, return_cov: (mean, cov))
        y = np.zeros((z.size, 2))
        got = model.predict_pair_probability(y, y)
        assert np.array_equal(got, norm.cdf(z / np.sqrt(2 * model.noise_scale**2)))
