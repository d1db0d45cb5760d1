"""Procedural scene generation: moving objects with ground-truth boxes.

A clip is a sequence of frames; each frame carries the ground-truth boxes
of every visible object in *reference-resolution* pixel coordinates.
Objects follow smooth random-walk trajectories with per-clip motion and
density characteristics, mimicking the variety of MOT16 sequences
(crowded pedestrian scenes vs sparse vehicle scenes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import as_generator, check_positive, spawn
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class SceneConfig:
    """Content characteristics of a synthetic clip.

    Parameters
    ----------
    n_objects:
        Mean number of concurrently visible objects.
    object_size:
        Mean box side length (px at reference resolution).
    size_spread:
        Log-normal sigma of object sizes — large spread means many small,
        hard objects (accuracy then degrades faster with resolution).
    speed:
        Mean object speed in px/frame at the native frame rate; controls
        how quickly held detections go stale at low sampling rates.
    texture:
        Relative spatial complexity in (0.5, 2.0); scales encoded bits.
    width, height:
        Reference capture resolution.
    native_fps:
        Capture rate of the camera.
    """

    n_objects: int = 12
    object_size: float = 90.0
    size_spread: float = 0.5
    speed: float = 6.0
    texture: float = 1.0
    width: float = 1920.0
    height: float = 1080.0
    native_fps: float = 30.0

    def __post_init__(self) -> None:
        check_positive("n_objects", self.n_objects)
        check_positive("object_size", self.object_size)
        check_positive("size_spread", self.size_spread, strict=False)
        check_positive("speed", self.speed, strict=False)
        check_positive("texture", self.texture)
        check_positive("width", self.width)
        check_positive("height", self.height)
        check_positive("native_fps", self.native_fps)


@dataclass
class SyntheticClip:
    """A generated clip: per-frame ground truth plus its scene config."""

    config: SceneConfig
    frames: list[np.ndarray]  # each (n_i, 4) ground-truth boxes
    name: str = "clip"

    @property
    def n_frames(self) -> int:
        return len(self.frames)


def generate_clip(
    config: SceneConfig | None = None,
    *,
    n_frames: int = 150,
    rng: RngLike = None,
    name: str = "clip",
) -> SyntheticClip:
    """Generate a clip with smooth object trajectories.

    Objects are born at random positions with log-normal sizes and an
    Ornstein–Uhlenbeck-ish velocity process (velocity decays toward a
    redrawn heading, keeping motion smooth but non-degenerate).  Objects
    leaving the frame respawn on the opposite side so density stays
    stationary over time.
    """
    cfg = config or SceneConfig()
    gen = as_generator(rng)
    check_positive("n_frames", n_frames)

    n = int(cfg.n_objects)
    # Initial state.
    cx = gen.uniform(0, cfg.width, n)
    cy = gen.uniform(0, cfg.height, n)
    sizes = cfg.object_size * gen.lognormal(0.0, cfg.size_spread, n)
    aspect = gen.uniform(0.6, 1.8, n)  # height/width
    heading = gen.uniform(0, 2 * np.pi, n)
    vx = cfg.speed * np.cos(heading)
    vy = cfg.speed * np.sin(heading)

    frames: list[np.ndarray] = []
    for _ in range(int(n_frames)):
        # Velocity: partial decay toward a perturbed heading (smooth turns).
        turn = gen.normal(0.0, 0.15, n)
        ang = np.arctan2(vy, vx) + turn
        sp = np.hypot(vx, vy)
        sp = 0.95 * sp + 0.05 * cfg.speed * gen.lognormal(0.0, 0.2, n)
        vx = sp * np.cos(ang)
        vy = sp * np.sin(ang)
        cx = cx + vx
        cy = cy + vy
        # Respawn wrap-around to hold density constant.
        cx = np.mod(cx, cfg.width)
        cy = np.mod(cy, cfg.height)

        bw = sizes
        bh = sizes * aspect
        boxes = np.stack(
            [cx - bw / 2, cy - bh / 2, cx + bw / 2, cy + bh / 2], axis=1
        )
        # Clip to frame; drop boxes that became degenerate at the border.
        boxes[:, [0, 2]] = np.clip(boxes[:, [0, 2]], 0, cfg.width)
        boxes[:, [1, 3]] = np.clip(boxes[:, [1, 3]], 0, cfg.height)
        keep = (boxes[:, 2] - boxes[:, 0] > 2) & (boxes[:, 3] - boxes[:, 1] > 2)
        frames.append(boxes[keep])

    return SyntheticClip(config=cfg, frames=frames, name=name)
