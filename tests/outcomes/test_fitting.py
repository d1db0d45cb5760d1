"""Tests for separable-product regression and R²."""

import numpy as np
import pytest

from repro.outcomes import SeparableProduct, r2_score


def _grid(seed=0, n=120):
    gen = np.random.default_rng(seed)
    r = gen.uniform(200, 2000, n)
    s = gen.uniform(1, 30, n)
    return r, s


class TestR2Score:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0

    def test_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, 2.0)
        assert r2_score(y, pred) == pytest.approx(0.0)

    def test_worse_than_mean_negative(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([3.0, 2.0, 1.0])
        assert r2_score(y, pred) < 0

    def test_constant_target(self):
        y = np.ones(4)
        assert r2_score(y, y) == 1.0
        assert r2_score(y, y + 0.5) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            r2_score(np.ones(3), np.ones(4))


class TestSeparableProduct:
    def test_recovers_true_product(self):
        r, s = _grid()
        theta = 1.0 + 0.8 * (r / 2000) ** 2
        eps = 0.3 + 0.7 * s / 30
        y = theta * eps
        model = SeparableProduct(deg_r=2, deg_s=1).fit(r, s, y)
        assert r2_score(y, model.predict(r, s)) > 0.999

    def test_components_multiply_to_prediction(self):
        r, s = _grid()
        y = (1 + (r / 2000)) * (s / 30)
        model = SeparableProduct(deg_r=1, deg_s=1).fit(r, s, y)
        pred = model.predict(r[:5], s[:5])
        manual = model.theta(r[:5]) * model.epsilon(s[:5])
        np.testing.assert_allclose(pred, manual)

    def test_handles_nonseparable_gracefully(self):
        r, s = _grid()
        y = np.sin(r / 300) * np.cos(s / 5) + r * s / 60000  # not rank-1
        model = SeparableProduct().fit(r, s, y)
        # Should still produce finite predictions with some skill.
        pred = model.predict(r, s)
        assert np.all(np.isfinite(pred))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            SeparableProduct().theta([1.0])
        with pytest.raises(RuntimeError):
            SeparableProduct().epsilon([1.0])

    def test_fit_on_real_outcome_shapes(self):
        """Separable fit achieves high R² on the Eq. 3 network outcome."""
        from repro.video import EncoderModel

        enc = EncoderModel()
        r, s = _grid()
        y = np.array([enc.bitrate(ri, si) for ri, si in zip(r, s)])
        model = SeparableProduct(deg_r=2, deg_s=2).fit(r, s, y)
        assert r2_score(y, model.predict(r, s)) > 0.98
