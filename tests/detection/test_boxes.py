"""Tests for repro.detection.boxes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.detection import box_area, clip_boxes, iou_matrix


def _box_strategy():
    coord = st.floats(0, 1000, allow_nan=False, allow_infinity=False)
    size = st.floats(1, 500, allow_nan=False, allow_infinity=False)
    return st.tuples(coord, coord, size, size).map(
        lambda t: np.array([t[0], t[1], t[0] + t[2], t[1] + t[3]])
    )


class TestBoxArea:
    def test_vectorized(self):
        boxes = np.array([[0, 0, 2, 2], [0, 0, 3, 1]])
        np.testing.assert_allclose(box_area(boxes), [4, 3])

    def test_inverted_clamps_to_zero(self):
        assert box_area(np.array([[5, 5, 1, 1]]))[0] == 0.0

    def test_empty(self):
        assert box_area(np.zeros((0, 4))).shape == (0,)


class TestClipBoxes:
    def test_clips_to_frame(self):
        out = clip_boxes(np.array([[-10, -10, 50, 50]]), 40, 30)
        np.testing.assert_allclose(out, [[0, 0, 40, 30]])

    def test_copy_not_view(self):
        src = np.array([[0.0, 0.0, 10.0, 10.0]])
        out = clip_boxes(src, 5, 5)
        out[0, 0] = 99
        assert src[0, 0] == 0.0


class TestIoUMatrix:
    def test_identical_boxes(self):
        b = np.array([[0, 0, 10, 10]])
        assert iou_matrix(b, b)[0, 0] == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = np.array([[0, 0, 1, 1]])
        b = np.array([[5, 5, 6, 6]])
        assert iou_matrix(a, b)[0, 0] == 0.0

    def test_half_overlap(self):
        a = np.array([[0, 0, 2, 1]])
        b = np.array([[1, 0, 3, 1]])
        # inter = 1, union = 3
        assert iou_matrix(a, b)[0, 0] == pytest.approx(1 / 3)

    def test_shape(self):
        a = np.zeros((3, 4))
        a[:, 2:] = 1
        b = np.zeros((5, 4))
        b[:, 2:] = 1
        assert iou_matrix(a, b).shape == (3, 5)

    def test_empty_inputs(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((2, 4))).shape == (0, 2)

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            iou_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    @given(_box_strategy(), _box_strategy())
    def test_iou_bounds_and_symmetry(self, a, b):
        m_ab = iou_matrix(a, b)[0, 0]
        m_ba = iou_matrix(b, a)[0, 0]
        assert 0.0 <= m_ab <= 1.0 + 1e-12
        assert m_ab == pytest.approx(m_ba)

    @given(_box_strategy())
    def test_self_iou_is_one(self, a):
        assert iou_matrix(a, a)[0, 0] == pytest.approx(1.0)
