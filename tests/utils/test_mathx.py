"""Tests for repro.utils.mathx, incl. hypothesis properties of gcd_many."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import gcd_many, is_harmonic, normalize_minmax, safe_cholesky


class TestGcdMany:
    def test_simple_integers(self):
        assert gcd_many([4, 6]) == 2

    def test_rational_periods(self):
        # periods 1/5 s and 1/10 s -> gcd 1/10 s
        assert gcd_many([0.2, 0.1]) == pytest.approx(0.1)

    def test_coprime_rationals(self):
        # 1/3 and 1/4 -> 1/12
        assert gcd_many([1 / 3, 1 / 4]) == pytest.approx(1 / 12)

    def test_single_value(self):
        assert gcd_many([0.25]) == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gcd_many([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            gcd_many([1.0, 0.0])
        with pytest.raises(ValueError):
            gcd_many([-0.5])

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    def test_gcd_of_inverse_fps_divides_all(self, fps_list):
        """gcd of periods 1/s divides every period (property from §3)."""
        periods = [1.0 / s for s in fps_list]
        g = gcd_many(periods)
        for p in periods:
            ratio = p / g
            assert abs(ratio - round(ratio)) < 1e-9 * max(1.0, ratio)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=6))
    def test_gcd_not_larger_than_min(self, fps_list):
        periods = [1.0 / s for s in fps_list]
        assert gcd_many(periods) <= min(periods) + 1e-12


class TestIsHarmonic:
    def test_harmonic_set(self):
        assert is_harmonic([0.1, 0.2, 0.4])

    def test_non_harmonic(self):
        assert not is_harmonic([0.2, 0.3])

    def test_equal_periods(self):
        assert is_harmonic([0.5, 0.5])

    def test_empty_is_harmonic(self):
        assert is_harmonic([])

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            is_harmonic([0.0, 1.0])

    @given(
        st.integers(1, 30),
        st.lists(st.integers(1, 8), min_size=1, max_size=5),
    )
    def test_multiples_always_harmonic(self, base_fps, multipliers):
        t_min = 1.0 / base_fps
        periods = [t_min * m for m in multipliers] + [t_min]
        assert is_harmonic(periods)


class TestNormalizeMinmax:
    def test_basic_mapping(self):
        out = normalize_minmax(np.array([5.0]), np.array([0.0]), np.array([10.0]))
        assert out[0] == pytest.approx(0.5)

    def test_clipping(self):
        out = normalize_minmax(np.array([20.0]), np.array([0.0]), np.array([10.0]))
        assert out[0] == 1.0

    def test_no_clip(self):
        out = normalize_minmax(
            np.array([20.0]), np.array([0.0]), np.array([10.0]), clip=False
        )
        assert out[0] == pytest.approx(2.0)

    def test_degenerate_span_gives_half(self):
        out = normalize_minmax(np.array([3.0]), np.array([3.0]), np.array([3.0]))
        assert out[0] == pytest.approx(0.5)

    def test_vector_components(self):
        out = normalize_minmax(
            np.array([1.0, 2.0]), np.array([0.0, 0.0]), np.array([2.0, 4.0])
        )
        np.testing.assert_allclose(out, [0.5, 0.5])


class TestSafeCholesky:
    def test_psd_matrix(self, rng):
        a = rng.normal(size=(6, 6))
        k = a @ a.T + 1e-3 * np.eye(6)
        ell = safe_cholesky(k)
        np.testing.assert_allclose(ell @ ell.T, k, atol=1e-8)

    def test_semidefinite_gets_jitter(self):
        # Rank-1 matrix: plain cholesky fails, jittered succeeds.
        v = np.array([[1.0, 2.0, 3.0]])
        k = v.T @ v
        ell = safe_cholesky(k)
        assert np.all(np.isfinite(ell))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            safe_cholesky(np.zeros((2, 3)))

    def test_indefinite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            safe_cholesky(np.diag([1.0, -5.0]))

