"""Object-detection analytics substrate.

Replaces the paper's YOLOv8-on-Triton stack with a simulated detector whose
error modes depend on the video configuration, plus a *real* mAP
implementation (greedy IoU matching + 101-point interpolated AP, the COCO
convention) so accuracy numbers are produced by an actual evaluation
pipeline rather than a hard-coded curve.
"""

from repro.detection.boxes import iou_matrix, box_area, clip_boxes
from repro.detection.detector import DetectorModel, SimulatedDetector, Detection
from repro.detection.evaluate import (
    match_detections,
    average_precision,
    precision_recall_curve,
    mean_average_precision,
)

__all__ = [
    "iou_matrix",
    "box_area",
    "clip_boxes",
    "DetectorModel",
    "SimulatedDetector",
    "Detection",
    "match_detections",
    "average_precision",
    "precision_recall_curve",
    "mean_average_precision",
]
