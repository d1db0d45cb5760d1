"""Tests for covariance kernels: values, PSD-ness, analytic gradients."""

import numpy as np
import pytest

from repro.gp import Matern52Kernel, RBFKernel

KERNELS = [RBFKernel, Matern52Kernel]


@pytest.fixture(params=KERNELS)
def kernel(request):
    return request.param(lengthscales=[0.7, 1.3], outputscale=2.0)


class TestKernelBasics:
    def test_diagonal_equals_outputscale(self, kernel, rng):
        x = rng.normal(size=(5, 2))
        k = kernel(x)
        np.testing.assert_allclose(np.diag(k), 2.0, rtol=1e-10)
        np.testing.assert_allclose(kernel.diag(x), 2.0)

    def test_symmetry(self, kernel, rng):
        x = rng.normal(size=(6, 2))
        k = kernel(x)
        np.testing.assert_allclose(k, k.T, atol=1e-12)

    def test_psd(self, kernel, rng):
        x = rng.normal(size=(10, 2))
        k = kernel(x)
        eig = np.linalg.eigvalsh(k)
        assert eig.min() > -1e-9

    def test_decay_with_distance(self, kernel):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]])
        k = kernel(x)
        assert k[0, 1] > k[0, 2]

    def test_cross_covariance_shape(self, kernel, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(7, 2))
        assert kernel(a, b).shape == (4, 7)

    def test_log_param_roundtrip(self, kernel):
        theta = kernel.get_log_params()
        kernel.set_log_params(theta + 0.3)
        np.testing.assert_allclose(kernel.get_log_params(), theta + 0.3)

    def test_wrong_param_count_raises(self, kernel):
        with pytest.raises(ValueError):
            kernel.set_log_params(np.zeros(7))

    def test_wrong_dims_raises(self, kernel):
        with pytest.raises(ValueError):
            kernel(np.zeros((3, 5)))

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RBFKernel([-1.0])
        with pytest.raises(ValueError):
            RBFKernel([1.0], outputscale=0.0)


class TestAnalyticGradients:
    """Finite differences cross-check the hand-derived dK/d(log θ)."""

    @pytest.mark.parametrize("cls", KERNELS)
    def test_gradients_match_finite_diff(self, cls, rng):
        kern = cls(lengthscales=[0.8, 1.4], outputscale=1.7)
        x = rng.normal(size=(6, 2))
        grads = kern.gradients(x)
        theta0 = kern.get_log_params()
        eps = 1e-6
        for j in range(kern.n_params):
            tp = theta0.copy()
            tp[j] += eps
            kern.set_log_params(tp)
            k_plus = kern(x)
            tm = theta0.copy()
            tm[j] -= eps
            kern.set_log_params(tm)
            k_minus = kern(x)
            kern.set_log_params(theta0)
            fd = (k_plus - k_minus) / (2 * eps)
            np.testing.assert_allclose(grads[j], fd, atol=1e-5, rtol=1e-4)

    @pytest.mark.parametrize("cls", KERNELS)
    def test_gradient_count(self, cls):
        kern = cls(lengthscales=[1.0, 1.0, 1.0])
        assert len(kern.gradients(np.zeros((2, 3)))) == 4


class TestRBFSpecifics:
    def test_known_value(self):
        kern = RBFKernel([1.0], outputscale=1.0)
        k = kern(np.array([[0.0]]), np.array([[1.0]]))
        assert k[0, 0] == pytest.approx(np.exp(-0.5))

    def test_ard_anisotropy(self):
        kern = RBFKernel([0.1, 10.0])
        x0 = np.array([[0.0, 0.0]])
        near_d1 = np.array([[0.5, 0.0]])
        near_d2 = np.array([[0.0, 0.5]])
        # dim 1 has tiny lengthscale -> moving along it decays much more
        assert kern(x0, near_d1)[0, 0] < kern(x0, near_d2)[0, 0]


class TestMaternSmoothness:
    def test_matern52_value(self):
        kern = Matern52Kernel([1.0], outputscale=1.0)
        r = 1.0
        sr = np.sqrt(5)
        expected = (1 + sr + sr**2 / 3) * np.exp(-sr)
        assert kern(np.array([[0.0]]), np.array([[r]]))[0, 0] == pytest.approx(expected)
