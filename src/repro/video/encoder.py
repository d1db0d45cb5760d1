"""Frame-size (encoder) model: bits per encoded frame vs configuration.

Matches the paper's θ_bit(r): a quadratic in resolution — encoded frame
size is roughly proportional to pixel count (width × height with fixed
aspect), modulated by content texture and encoder efficiency.  The same
model provides the transmission-energy term γ·θ_bit(r)·ε_bit(s) of Eq. 4.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils import check_positive


@dataclass(frozen=True)
class EncoderModel:
    """H.264-like size model.

    ``bits_per_frame(r) = base_bits * texture * (r / ref_width)^2`` with a
    small resolution-independent container overhead.  Inter-frame coding
    gain at higher frame rates (smaller deltas between closer frames) is
    modelled as a mild discount factor on rate, applied in
    :meth:`bitrate`.

    Parameters
    ----------
    base_bits:
        Encoded bits of one reference-resolution frame at texture 1.0
        (default ≈ 62.5 kB ⇒ 15 Mbps at 30 fps, matching Fig. 2's
        bandwidth ceiling of ~15 Mbps at full config).
    ref_width:
        Reference resolution width in pixels.
    overhead_bits:
        Per-frame container/NAL overhead, independent of resolution.
    inter_gain:
        Fractional rate discount at the native rate relative to
        all-intra coding (0 = none).
    """

    base_bits: float = 500_000.0
    ref_width: float = 1920.0
    overhead_bits: float = 2_000.0
    inter_gain: float = 0.15

    def __post_init__(self) -> None:
        check_positive("base_bits", self.base_bits)
        check_positive("ref_width", self.ref_width)
        check_positive("overhead_bits", self.overhead_bits, strict=False)
        check_positive("inter_gain", self.inter_gain, strict=False)
        if self.inter_gain >= 1.0:
            raise ValueError("inter_gain must be < 1")

    def bits_per_frame(self, width: float, *, texture: float = 1.0) -> float:
        """θ_bit(r): encoded size in bits of one frame at width ``width``."""
        check_positive("width", width)
        check_positive("texture", texture)
        scale = (float(width) / self.ref_width) ** 2
        return self.base_bits * texture * scale + self.overhead_bits

    def bitrate(
        self, width: float, fps: float, *, texture: float = 1.0, native_fps: float = 30.0
    ) -> float:
        """Stream bitrate in bits/s: θ_bit(r) · ε_bit(s).

        ε_bit(s) is linear in s with the inter-coding discount growing as
        the sampling rate approaches the native rate.
        """
        check_positive("fps", fps)
        gain = self.inter_gain * min(fps / native_fps, 1.0)
        return self.bits_per_frame(width, texture=texture) * fps * (1.0 - gain)
