"""Tests for multivariate-normal posterior sampling."""

import numpy as np
import pytest

from repro.gp import sample_mvn


class TestSampleMvn:
    def test_shape(self, rng):
        s = sample_mvn(np.zeros(3), np.eye(3), 10, rng=0)
        assert s.shape == (10, 3)

    def test_mean_and_cov_recovered(self):
        mean = np.array([1.0, -2.0])
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        s = sample_mvn(mean, cov, 100_000, rng=0)
        np.testing.assert_allclose(s.mean(axis=0), mean, atol=0.03)
        np.testing.assert_allclose(np.cov(s.T), cov, atol=0.05)

    def test_deterministic_by_seed(self):
        a = sample_mvn(np.zeros(2), np.eye(2), 5, rng=3)
        b = sample_mvn(np.zeros(2), np.eye(2), 5, rng=3)
        np.testing.assert_array_equal(a, b)

    def test_singular_cov_handled(self):
        v = np.array([[1.0, 2.0]])
        cov = v.T @ v  # rank 1
        s = sample_mvn(np.zeros(2), cov, 100, rng=0)
        # samples lie (nearly) on the rank-1 subspace: x2 = 2 x1
        np.testing.assert_allclose(s[:, 1], 2 * s[:, 0], atol=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_mvn(np.zeros(2), np.eye(3), 5)
        with pytest.raises(ValueError):
            sample_mvn(np.zeros(2), np.eye(2), 0)
