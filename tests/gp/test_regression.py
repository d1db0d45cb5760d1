"""Tests for exact GP regression."""

import numpy as np
import pytest

from repro.gp import GPRegressor, Matern52Kernel, RBFKernel


def _toy_1d(n=25, noise=0.01, seed=0):
    gen = np.random.default_rng(seed)
    x = np.sort(gen.uniform(0, 5, n)).reshape(-1, 1)
    y = np.sin(x[:, 0]) + gen.normal(0, noise, n)
    return x, y


class TestFitPredict:
    def test_interpolates_training_points(self):
        x, y = _toy_1d(noise=0.001)
        gp = GPRegressor().fit(x, y)
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, y, atol=0.05)

    def test_predictive_variance_small_at_train_large_far(self):
        x, y = _toy_1d()
        gp = GPRegressor().fit(x, y)
        _, var_train = gp.predict(x[:1])
        _, var_far = gp.predict(np.array([[30.0]]))
        assert var_far[0] > var_train[0] * 5

    def test_generalization(self):
        x, y = _toy_1d(n=40)
        gp = GPRegressor().fit(x, y)
        x_test = np.linspace(0.2, 4.8, 20).reshape(-1, 1)
        mean, _ = gp.predict(x_test)
        np.testing.assert_allclose(mean, np.sin(x_test[:, 0]), atol=0.15)

    def test_2d_input(self, rng):
        x = rng.uniform(-1, 1, (40, 2))
        y = x[:, 0] ** 2 + 0.5 * x[:, 1]
        gp = GPRegressor().fit(x, y)
        mean, _ = gp.predict(np.array([[0.5, 0.5]]))
        assert mean[0] == pytest.approx(0.5, abs=0.15)

    def test_return_cov_matches_var(self):
        x, y = _toy_1d()
        gp = GPRegressor().fit(x, y)
        xt = np.array([[1.0], [2.0]])
        _, var = gp.predict(xt)
        _, cov = gp.predict(xt, return_cov=True)
        np.testing.assert_allclose(np.diag(cov), var, rtol=1e-6, atol=1e-10)

    def test_include_noise_inflates_var(self):
        x, y = _toy_1d(noise=0.1)
        gp = GPRegressor().fit(x, y)
        _, v0 = gp.predict(x[:3])
        _, v1 = gp.predict(x[:3], include_noise=True)
        assert np.all(v1 > v0)

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            GPRegressor().predict(np.zeros((1, 1)))

    def test_mismatched_xy_raises(self):
        with pytest.raises(ValueError):
            GPRegressor().fit(np.zeros((3, 1)), np.zeros(4))

    def test_kernel_dim_mismatch_raises(self):
        gp = GPRegressor(RBFKernel([1.0, 1.0]))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 1)), np.zeros(3))

    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            GPRegressor(noise=0.0)


class TestHyperparameterFitting:
    def test_mll_improves_with_optimization(self):
        x, y = _toy_1d(n=30)
        gp_raw = GPRegressor(Matern52Kernel([3.0], outputscale=0.1), noise=0.5)
        gp_raw.fit(x, y, optimize=False)
        mll_raw = gp_raw.log_marginal_likelihood()
        gp_opt = GPRegressor(Matern52Kernel([3.0], outputscale=0.1), noise=0.5)
        gp_opt.fit(x, y, optimize=True)
        assert gp_opt.log_marginal_likelihood() >= mll_raw

    def test_noise_recovered_roughly(self):
        gen = np.random.default_rng(1)
        x = gen.uniform(0, 5, 80).reshape(-1, 1)
        sigma = 0.3
        y = np.sin(x[:, 0]) + gen.normal(0, sigma, 80)
        gp = GPRegressor().fit(x, y, n_restarts=3)
        # standardized-scale noise, convert back
        fitted_sigma = np.sqrt(gp.noise) * gp._y_std
        assert 0.1 < fitted_sigma < 0.7

    def test_fit_is_deterministic_given_rng(self):
        x, y = _toy_1d()
        g1 = GPRegressor().fit(x, y, rng=5)
        g2 = GPRegressor().fit(x, y, rng=5)
        m1, _ = g1.predict(np.array([[2.5]]))
        m2, _ = g2.predict(np.array([[2.5]]))
        assert m1[0] == m2[0]


class TestPosteriorSampling:
    def test_sample_shape(self):
        x, y = _toy_1d()
        gp = GPRegressor().fit(x, y)
        xt = np.linspace(0, 5, 7).reshape(-1, 1)
        s = gp.sample_posterior(xt, n_samples=16, rng=0)
        assert s.shape == (16, 7)

    def test_samples_center_on_mean(self):
        x, y = _toy_1d()
        gp = GPRegressor().fit(x, y)
        xt = np.array([[2.0]])
        s = gp.sample_posterior(xt, n_samples=4000, rng=0)
        mean, var = gp.predict(xt)
        assert np.mean(s) == pytest.approx(mean[0], abs=4 * np.sqrt(var[0] / 4000) + 1e-3)


class TestLogPredictiveDensity:
    def test_good_model_scores_higher_than_bad(self):
        x, y = _toy_1d(n=40)
        x_test = np.linspace(0.2, 4.8, 15).reshape(-1, 1)
        y_test = np.sin(x_test[:, 0])
        good = GPRegressor().fit(x, y)
        bad = GPRegressor().fit(x[:4], y[:4], optimize=False)
        assert good.log_predictive_density(x_test, y_test) > bad.log_predictive_density(
            x_test, y_test
        )

    def test_penalizes_wrong_targets(self):
        x, y = _toy_1d(n=30)
        gp = GPRegressor().fit(x, y)
        xt = np.array([[2.0], [3.0]])
        yt_true = np.sin(xt[:, 0])
        yt_wrong = yt_true + 5.0
        assert gp.log_predictive_density(xt, yt_true) > gp.log_predictive_density(
            xt, yt_wrong
        )

    def test_length_mismatch_raises(self):
        x, y = _toy_1d()
        gp = GPRegressor().fit(x, y)
        with pytest.raises(ValueError):
            gp.log_predictive_density(np.zeros((2, 1)), np.zeros(3))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GPRegressor().log_predictive_density(np.zeros((1, 1)), np.zeros(1))
