"""Periodic stream model and high-rate stream splitting.

§3 of the paper characterizes each stream i by the tuple
``{T_i, r_i, p_i}`` — inter-arrival period (inverse frame rate),
resolution, and per-frame processing time.  Streams whose processing
time exceeds their period ("high-rate streams", e.g. Video 2 in
Fig. 3(a)) are split by periodic sampling into ``⌈s_i · p_i⌉``
sub-streams so that each sub-stream alone never self-contends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.utils import check_positive


@dataclass(frozen=True)
class PeriodicStream:
    """One periodic analytics stream (τ_i = {T_i, r_i, p_i}).

    Parameters
    ----------
    stream_id:
        Identifier; survives splitting via ``parent_id``.
    fps:
        Frame sampling rate s_i; the period is T_i = 1 / s_i.
    resolution:
        Frame width r_i in pixels.
    processing_time:
        p_i — seconds to process one frame on a (homogeneous) server.
    bits_per_frame:
        Encoded frame size θ_bit(r_i), used by the assignment objective.
    parent_id:
        Original stream if this is a split sub-stream, else ``stream_id``.
    phase:
        Sub-stream index within the parent (0 for unsplit streams).
    """

    stream_id: int
    fps: float
    resolution: float
    processing_time: float
    bits_per_frame: float = 0.0
    parent_id: int | None = None
    phase: int = 0

    def __post_init__(self) -> None:
        check_positive("fps", self.fps)
        check_positive("resolution", self.resolution)
        check_positive("processing_time", self.processing_time)
        check_positive("bits_per_frame", self.bits_per_frame, strict=False)
        if self.parent_id is None:
            object.__setattr__(self, "parent_id", self.stream_id)

    @property
    def period(self) -> float:
        """T_i = 1 / s_i."""
        return 1.0 / self.fps

    @property
    def load(self) -> float:
        """Utilization contribution p_i · s_i."""
        return self.processing_time * self.fps

    @property
    def rate(self) -> float:
        """Encoded bit-rate θ_bit(r_i) · s_i (bits/s)."""
        return self.bits_per_frame * self.fps


def split_count(fps: float, processing_time: float) -> int:
    """Sub-streams ⌈s·p⌉ a stream splits into (1 when it does not self-contend)."""
    if processing_time <= 1.0 / fps + 1e-12:
        return 1
    return max(1, math.ceil(fps * processing_time - 1e-12))


def split_high_rate_streams(
    streams: list[PeriodicStream],
    *,
    id_start: int | None = None,
) -> list[PeriodicStream]:
    """Split every high-rate stream into ⌈s_i p_i⌉ interleaved sub-streams.

    Each sub-stream keeps the parent's resolution and processing time but
    samples every k-th frame (rate s_i / k), so its own period is at
    least p_i.  Sub-streams get fresh ids starting from ``id_start``
    (default: one past the current maximum) and record their parent.

    The returned list preserves non-split streams unchanged, in order,
    with sub-streams appended where their parent was.
    """
    if id_start is None:
        id_start = (max((s.stream_id for s in streams), default=-1)) + 1
    next_id = id_start
    out: list[PeriodicStream] = []
    for s in streams:
        k = split_count(s.fps, s.processing_time)
        if k < 2:
            out.append(s)
            continue
        sub_fps = s.fps / k
        for phase in range(k):
            out.append(
                replace(
                    s,
                    stream_id=next_id,
                    fps=sub_fps,
                    parent_id=s.stream_id,
                    phase=phase,
                )
            )
            next_id += 1
    return out
