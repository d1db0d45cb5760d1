"""Tests for the encoder size model and device profiles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.video import DeviceProfile, EncoderModel, JETSON_NX_PROFILE


class TestEncoderModel:
    def test_bits_quadratic_in_width(self):
        enc = EncoderModel(overhead_bits=0.0)
        b1 = enc.bits_per_frame(960)
        b2 = enc.bits_per_frame(1920)
        assert b2 / b1 == pytest.approx(4.0)

    def test_texture_scales_bits(self):
        enc = EncoderModel()
        assert enc.bits_per_frame(960, texture=2.0) > enc.bits_per_frame(960, texture=1.0)

    def test_bitrate_increases_with_fps(self):
        enc = EncoderModel()
        assert enc.bitrate(960, 30) > enc.bitrate(960, 10)

    def test_inter_gain_discounts_high_fps(self):
        enc = EncoderModel(inter_gain=0.3)
        # rate at 30fps < 3x rate at 10fps due to inter-frame gain
        assert enc.bitrate(960, 30) < 3 * enc.bitrate(960, 10)

    def test_default_full_config_near_15mbps(self):
        # Fig. 2 shows ~15 Mbps at (1920-2000 px, 30 fps).
        enc = EncoderModel()
        rate = enc.bitrate(1920, 30)
        assert 10e6 < rate < 20e6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EncoderModel(inter_gain=1.0)
        with pytest.raises(ValueError):
            EncoderModel(base_bits=-1)

    @given(st.floats(100, 3840), st.floats(1, 60))
    def test_bitrate_positive(self, width, fps):
        assert EncoderModel().bitrate(width, fps) > 0


class TestDeviceProfile:
    def test_flops_quadratic(self):
        p = DeviceProfile()
        assert p.flops_per_frame(1920) / p.flops_per_frame(960) == pytest.approx(4.0)

    def test_processing_time_has_floor(self):
        p = DeviceProfile(fixed_overhead=0.01)
        assert p.processing_time(10) >= 0.01

    def test_processing_time_monotone(self):
        p = JETSON_NX_PROFILE
        widths = [300, 600, 1200, 2000]
        times = [p.processing_time(w) for w in widths]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_energy_positive(self):
        assert JETSON_NX_PROFILE.energy_per_frame(960) > 0

    def test_utilization_linear_in_fps(self):
        p = JETSON_NX_PROFILE
        assert p.utilization(960, 30) == pytest.approx(3 * p.utilization(960, 10))

    def test_calibration_full_config_latency(self):
        # Per-frame compute latency at 2000 px should be in Fig. 2's
        # sub-second range.
        t = JETSON_NX_PROFILE.processing_time(2000)
        assert 0.05 < t < 0.8

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DeviceProfile(effective_tflops=0)


class TestClipLibrary:
    def test_default_library_contents(self):
        from repro.video import default_library

        lib = default_library(n_frames=10, rng=0)
        assert len(lib) == 8
        assert "mot16-02-like" in lib.names

    def test_take_cycles(self):
        from repro.video import default_library

        lib = default_library(n_frames=5, rng=0)
        clips = lib.take(10)
        assert len(clips) == 10
        assert clips[0] is clips[8]

    def test_take_negative_raises(self):
        from repro.video import default_library

        lib = default_library(n_frames=5, rng=0)
        with pytest.raises(ValueError):
            lib.take(-1)

    def test_deterministic(self):
        from repro.video import default_library

        a = default_library(n_frames=5, rng=1)
        b = default_library(n_frames=5, rng=1)
        np.testing.assert_array_equal(
            a["mot16-04-like"].frames[0], b["mot16-04-like"].frames[0]
        )
