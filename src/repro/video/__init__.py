"""Video workload substrate.

Replaces the paper's MOT16 clips and smart cameras with procedurally
generated scenes (ground-truth boxes per frame), a frame-size encoder
model, and per-device compute/energy profiles calibrated to the surface
shapes of the paper's Figure 2.
"""

from repro.video.synthetic import (
    SceneConfig,
    SyntheticClip,
    generate_clip,
)
from repro.video.encoder import EncoderModel
from repro.video.profiles import DeviceProfile, JETSON_NX_PROFILE
from repro.video.dataset import ClipLibrary, default_library
from repro.video.filtering import (
    FrameDifferenceFilter,
    roi_bits_per_frame,
    effective_stream_load,
)

__all__ = [
    "SceneConfig",
    "SyntheticClip",
    "generate_clip",
    "EncoderModel",
    "DeviceProfile",
    "JETSON_NX_PROFILE",
    "ClipLibrary",
    "default_library",
    "FrameDifferenceFilter",
    "roi_bits_per_frame",
    "effective_stream_load",
]
