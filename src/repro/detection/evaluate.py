"""Detection evaluation: greedy matching, PR curves, AP, and mAP.

Implements the COCO-style 101-point interpolated average precision from
scratch.  Given per-frame ground-truth boxes and scored detections, frames
are pooled, detections sorted by confidence, matched greedily to the
highest-IoU unmatched ground truth at a threshold (0.5 by default), and
the interpolated precision envelope integrated over recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.detection.boxes import iou_matrix


@dataclass
class FrameResult:
    """Detections and ground truth for one evaluated frame."""

    gt_boxes: np.ndarray  # (g, 4)
    det_boxes: np.ndarray  # (d, 4)
    det_scores: np.ndarray  # (d,)

    def __post_init__(self) -> None:
        self.gt_boxes = np.asarray(self.gt_boxes, dtype=float).reshape(-1, 4)
        self.det_boxes = np.asarray(self.det_boxes, dtype=float).reshape(-1, 4)
        self.det_scores = np.asarray(self.det_scores, dtype=float).reshape(-1)
        if self.det_boxes.shape[0] != self.det_scores.shape[0]:
            raise ValueError(
                f"{self.det_boxes.shape[0]} boxes but {self.det_scores.shape[0]} scores"
            )


def match_detections(
    gt_boxes: np.ndarray,
    det_boxes: np.ndarray,
    det_scores: np.ndarray,
    *,
    iou_threshold: float = 0.5,
) -> np.ndarray:
    """Greedy confidence-ordered matching within one frame.

    Returns a boolean array (len = #detections, in *score-descending*
    order alignment with the caller's arrays) marking true positives.
    Each ground-truth box can match at most one detection; detections are
    processed from highest to lowest confidence, taking the best still
    unmatched ground truth with IoU >= threshold.
    """
    gt_boxes = np.asarray(gt_boxes, dtype=float).reshape(-1, 4)
    det_boxes = np.asarray(det_boxes, dtype=float).reshape(-1, 4)
    det_scores = np.asarray(det_scores, dtype=float).reshape(-1)
    n_det = det_boxes.shape[0]
    tp = np.zeros(n_det, dtype=bool)
    if n_det == 0 or gt_boxes.shape[0] == 0:
        return tp
    order = np.argsort(-det_scores, kind="stable")
    ious = iou_matrix(det_boxes[order], gt_boxes)
    gt_used = np.zeros(gt_boxes.shape[0], dtype=bool)
    for rank, det_idx in enumerate(order):
        row = ious[rank].copy()
        row[gt_used] = -1.0
        best = int(np.argmax(row))
        if row[best] >= iou_threshold:
            gt_used[best] = True
            tp[det_idx] = True
    return tp


def precision_recall_curve(
    frames: Sequence[FrameResult],
    *,
    iou_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Pooled precision/recall over all frames, ordered by confidence.

    Returns ``(recall, precision)`` arrays of length = total detections.
    Recall is relative to the total number of ground-truth boxes.
    """
    all_scores: list[np.ndarray] = []
    all_tp: list[np.ndarray] = []
    n_gt = 0
    for fr in frames:
        n_gt += fr.gt_boxes.shape[0]
        if fr.det_boxes.shape[0] == 0:
            continue
        tp = match_detections(
            fr.gt_boxes, fr.det_boxes, fr.det_scores, iou_threshold=iou_threshold
        )
        all_scores.append(fr.det_scores)
        all_tp.append(tp)
    if not all_scores or n_gt == 0:
        return np.zeros(0), np.zeros(0)
    scores = np.concatenate(all_scores)
    tps = np.concatenate(all_tp)
    order = np.argsort(-scores, kind="stable")
    tps = tps[order]
    cum_tp = np.cumsum(tps)
    cum_fp = np.cumsum(~tps)
    recall = cum_tp / n_gt
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1)
    return recall, precision


def average_precision(
    recall: np.ndarray,
    precision: np.ndarray,
    *,
    n_points: int = 101,
) -> float:
    """COCO 101-point interpolated AP.

    Precision is replaced by its running maximum from the right (the
    interpolation envelope), then sampled at ``n_points`` evenly spaced
    recall levels and averaged.
    """
    recall = np.asarray(recall, dtype=float)
    precision = np.asarray(precision, dtype=float)
    if recall.size == 0:
        return 0.0
    # Monotone envelope: p_interp(r) = max_{r' >= r} p(r').
    env = np.maximum.accumulate(precision[::-1])[::-1]
    levels = np.linspace(0.0, 1.0, n_points)
    # For each level find the first recall >= level.
    idx = np.searchsorted(recall, levels, side="left")
    sampled = np.where(idx < recall.size, env[np.minimum(idx, recall.size - 1)], 0.0)
    return float(np.mean(sampled))


def mean_average_precision(
    frames_by_class: dict[int, Sequence[FrameResult]] | Sequence[FrameResult],
    *,
    iou_threshold: float = 0.5,
) -> float:
    """mAP across classes (or plain AP when given a single frame list)."""
    if isinstance(frames_by_class, dict):
        if not frames_by_class:
            return 0.0
        aps = []
        for frames in frames_by_class.values():
            r, p = precision_recall_curve(frames, iou_threshold=iou_threshold)
            aps.append(average_precision(r, p))
        return float(np.mean(aps))
    r, p = precision_recall_curve(frames_by_class, iou_threshold=iou_threshold)
    return average_precision(r, p)
