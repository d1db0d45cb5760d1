"""Integration tests: cluster runs reproduce the paper's §2.2 phenomena.

The key behaviours: (a) latency is flat w.r.t. fps when resources are
ample (Fig. 2, 2nd subplot); (b) latency accumulates when streams
contend on one server (Fig. 3(a)); (c) Theorem-1 staggering plus Const2
yields zero measured jitter (Fig. 4 / §4.1).
"""

import numpy as np
import pytest

from repro.sim import EdgeCluster, StreamSpec, simulate_schedule
from repro.video import DeviceProfile, EncoderModel


FAST_PROFILE = DeviceProfile(effective_tflops=50.0, fixed_overhead=0.001)
TINY_ENC = EncoderModel(base_bits=1000.0, overhead_bits=0.0)


class TestStreamSpec:
    def test_period(self):
        s = StreamSpec(0, fps=10.0, processing_time=0.01, bits_per_frame=100)
        assert s.period == pytest.approx(0.1)

    def test_invalid(self):
        with pytest.raises(ValueError):
            StreamSpec(0, fps=0.0, processing_time=0.01, bits_per_frame=1)


class TestClusterBasics:
    def test_assignment_length_mismatch(self):
        c = EdgeCluster([10.0])
        with pytest.raises(ValueError):
            c.run([StreamSpec(0, 1.0, 0.01, 100.0)], [0, 1], 1.0)

    def test_assignment_out_of_range(self):
        c = EdgeCluster([10.0])
        with pytest.raises(ValueError):
            c.run([StreamSpec(0, 1.0, 0.01, 100.0)], [3], 1.0)

    def test_dropped_stream_emits_nothing(self):
        c = EdgeCluster([10.0])
        rep = c.run([StreamSpec(0, 10.0, 0.01, 100.0)], [-1], 2.0)
        assert rep.streams[0].frames_emitted == 0

    def test_empty_cluster_raises(self):
        with pytest.raises(ValueError):
            EdgeCluster([])

    def test_frame_counts(self):
        c = EdgeCluster([100.0])
        rep = c.run([StreamSpec(0, 10.0, 0.001, 1000.0)], [0], 1.0)
        # frames at t=0, 0.1, ..., 1.0 -> 11 emitted
        assert rep.streams[0].frames_emitted == 11
        assert rep.streams[0].frames_completed >= 10


class TestLatencyBehaviour:
    def test_latency_flat_in_fps_when_uncontended(self):
        """Fig. 2: e2e latency independent of fps with ample resources."""
        lat = {}
        for fps in (5.0, 15.0, 30.0):
            rep = simulate_schedule(
                [800.0], [fps], [0], [100.0], horizon=5.0,
                profile=FAST_PROFILE, encoder=TINY_ENC,
            )
            lat[fps] = rep.mean_latency
        vals = list(lat.values())
        assert max(vals) - min(vals) < 0.005

    def test_latency_accumulates_under_contention(self):
        """Fig. 3(a): overload on one server grows queueing delay."""
        # Processing 0.15 s per frame at 10 fps = 1.5 utilization: overload.
        spec = StreamSpec(0, fps=10.0, processing_time=0.15, bits_per_frame=1e3)
        c = EdgeCluster([1000.0])
        rep = c.run([spec], [0], 5.0)
        m = rep.streams[0]
        # queueing delay increases monotonically across frames
        assert m.queueing_delays[-1] > m.queueing_delays[0]
        assert m.max_jitter > 0.1

    def test_two_streams_contend(self):
        """Two streams whose combined load > 1 show jitter."""
        specs = [
            StreamSpec(0, fps=5.0, processing_time=0.15, bits_per_frame=1e3),
            StreamSpec(1, fps=5.0, processing_time=0.15, bits_per_frame=1e3, offset=0.0),
        ]
        c = EdgeCluster([1000.0])
        rep = c.run(specs, [0, 0], 5.0)
        assert rep.max_jitter > 0.0

    def test_zero_jitter_for_const2_schedule(self):
        """Theorem 1: harmonic periods + stagger -> zero queueing delay."""
        # periods 0.2 and 0.4, p = 0.05 each, sum p = 0.1 <= gcd = 0.2
        specs = [
            StreamSpec(0, fps=5.0, processing_time=0.05, bits_per_frame=1e-3, offset=0.0),
            StreamSpec(1, fps=2.5, processing_time=0.05, bits_per_frame=1e-3, offset=0.05),
        ]
        c = EdgeCluster([1000.0])
        rep = c.run(specs, [0, 0], 10.0)
        assert rep.max_jitter == pytest.approx(0.0, abs=1e-9)

    def test_non_harmonic_periods_cause_jitter(self):
        """Fig. 4: non-harmonic periods on one server -> jitter."""
        # periods 0.3 and 0.4 s; gcd = 0.1 < p1+p2 = 0.18 -> Const2 violated
        specs = [
            StreamSpec(0, fps=1 / 0.3, processing_time=0.09, bits_per_frame=1e-3),
            StreamSpec(1, fps=2.5, processing_time=0.09, bits_per_frame=1e-3, offset=0.09),
        ]
        c = EdgeCluster([1000.0])
        rep = c.run(specs, [0, 0], 20.0)
        assert rep.max_jitter > 0.0


class TestSimulateSchedule:
    def test_basic_run(self):
        rep = simulate_schedule(
            [960.0, 480.0], [5.0, 10.0], [0, 1], [20.0, 20.0], horizon=3.0
        )
        assert rep.mean_latency > 0
        assert rep.total_bandwidth_mbps > 0
        assert rep.computation_tflops > 0
        assert rep.total_power_watts > 0

    def test_stagger_reduces_jitter(self):
        # Two identical streams on one server, load ~0.9.
        args = dict(
            resolutions=[1400.0, 1400.0],
            fps=[6.0, 6.0],
            assignment=[0, 0],
            bandwidths_mbps=[1000.0],
            horizon=5.0,
            encoder=TINY_ENC,
        )
        rep_stag = simulate_schedule(**args, stagger=True)
        rep_sync = simulate_schedule(**args, stagger=False)
        assert rep_stag.max_jitter <= rep_sync.max_jitter
        assert rep_sync.max_jitter > 0  # simultaneous arrivals collide

    def test_bandwidth_accounting_matches_encoder(self):
        enc = EncoderModel()
        rep = simulate_schedule(
            [960.0], [10.0], [0], [100.0], horizon=10.0, encoder=enc,
            profile=FAST_PROFILE,
        )
        expected_mbps = enc.bits_per_frame(960.0) * 10.0 / 1e6
        assert rep.total_bandwidth_mbps == pytest.approx(expected_mbps, rel=0.15)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            simulate_schedule([960.0], [5.0, 6.0], [0], [10.0])

    def test_textures_length_mismatch(self):
        with pytest.raises(ValueError):
            simulate_schedule([960.0], [5.0], [0], [10.0], textures=[1.0, 2.0])
