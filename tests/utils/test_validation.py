"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils import (
    check_array_1d,
    check_array_2d,
    check_in_range,
    check_positive,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 1.5) == 1.5

    def test_rejects_zero_strict(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_accepts_zero_nonstrict(self):
        assert check_positive("x", 0, strict=False) == 0.0

    def test_rejects_negative_nonstrict(self):
        with pytest.raises(ValueError):
            check_positive("x", -1, strict=False)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_positive("x", float("inf"))


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range("x", 1.0, 1.0, 2.0) == 1.0
        assert check_in_range("x", 2.0, 1.0, 2.0) == 2.0

    def test_exclusive_bounds_reject_edges(self):
        with pytest.raises(ValueError):
            check_in_range("x", 1.0, 1.0, 2.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            check_in_range("x", 3.0, 0.0, 2.0)


class TestCheckArray1d:
    def test_coerces_list(self):
        out = check_array_1d("a", [1, 2, 3])
        assert out.dtype == float
        assert out.shape == (3,)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            check_array_1d("a", [[1, 2]])

    def test_min_len(self):
        with pytest.raises(ValueError):
            check_array_1d("a", [1], min_len=2)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            check_array_1d("a", [1.0, float("nan")])


class TestCheckArray2d:
    def test_promotes_1d_row(self):
        out = check_array_2d("a", [1.0, 2.0])
        assert out.shape == (1, 2)

    def test_column_check(self):
        with pytest.raises(ValueError):
            check_array_2d("a", np.zeros((3, 2)), n_cols=4)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            check_array_2d("a", np.zeros((2, 2, 2)))
