"""Vectorized axis-aligned bounding-box operations.

Boxes use ``(x1, y1, x2, y2)`` corner format in pixels, stored as float
arrays of shape ``(n, 4)``.  All pairwise operations are fully broadcast —
no Python loops — per the HPC guide's vectorization idiom.
"""

from __future__ import annotations

import numpy as np


def _as_boxes(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.size == 0:
        return a.reshape(0, 4)
    if a.ndim == 1:
        a = a.reshape(1, 4)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"boxes must have shape (n, 4), got {a.shape}")
    return a


def box_area(boxes) -> np.ndarray:
    """Areas of ``(n, 4)`` boxes; degenerate boxes clamp to zero area."""
    b = _as_boxes(boxes)
    w = np.clip(b[:, 2] - b[:, 0], 0.0, None)
    h = np.clip(b[:, 3] - b[:, 1], 0.0, None)
    return w * h


def clip_boxes(boxes, width: float, height: float) -> np.ndarray:
    """Clip boxes to the frame rectangle [0, width] x [0, height]."""
    b = _as_boxes(boxes).copy()
    b[:, [0, 2]] = np.clip(b[:, [0, 2]], 0.0, float(width))
    b[:, [1, 3]] = np.clip(b[:, [1, 3]], 0.0, float(height))
    return b


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """Pairwise intersection-over-union, shape ``(len(a), len(b))``.

    Runs in one broadcast pass: intersection corners via ``maximum`` /
    ``minimum`` on expanded axes, then the standard IoU ratio with a zero
    guard for empty unions.
    """
    a = _as_boxes(boxes_a)
    b = _as_boxes(boxes_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    lt = np.maximum(a[:, None, :2], b[None, :, :2])  # (na, nb, 2)
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    inter = wh[..., 0] * wh[..., 1]
    union = box_area(a)[:, None] + box_area(b)[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou
