"""Tests for the simulation metrics containers."""

import numpy as np
import pytest

from repro.sim.metrics import ServerMetrics, SimulationReport, StreamMetrics


def _stream_metrics(lat, qd, emitted=None, completed=None):
    lat = np.asarray(lat, dtype=float)
    return StreamMetrics(
        stream_id=0,
        latencies=lat,
        queueing_delays=np.asarray(qd, dtype=float),
        frames_emitted=emitted if emitted is not None else lat.size,
        frames_completed=completed if completed is not None else lat.size,
    )


class TestStreamMetrics:
    def test_mean_latency(self):
        m = _stream_metrics([0.1, 0.2, 0.3], [0, 0, 0])
        assert m.mean_latency == pytest.approx(0.2)

    def test_max_jitter(self):
        m = _stream_metrics([0.1, 0.1], [0.0, 0.05])
        assert m.max_jitter == pytest.approx(0.05)

    def test_empty_stream(self):
        m = _stream_metrics([], [], emitted=5, completed=0)
        assert np.isnan(m.mean_latency)
        assert m.max_jitter == 0.0


class TestSimulationReport:
    def _report(self):
        streams = {
            0: _stream_metrics([0.1, 0.1], [0.0, 0.0]),
            1: _stream_metrics([0.3, 0.3], [0.02, 0.01]),
        }
        servers = {
            0: ServerMetrics(0, utilization=0.5, energy_joules=100.0,
                             frames_processed=4, uplink_mbps=3.0),
            1: ServerMetrics(1, utilization=0.2, energy_joules=60.0,
                             frames_processed=0, uplink_mbps=1.0),
        }
        return SimulationReport(
            horizon=10.0, streams=streams, servers=servers, total_flops=50.0
        )

    def test_mean_latency_across_streams(self):
        assert self._report().mean_latency == pytest.approx(0.2)

    def test_max_jitter_across_streams(self):
        assert self._report().max_jitter == pytest.approx(0.02)

    def test_total_bandwidth(self):
        assert self._report().total_bandwidth_mbps == pytest.approx(4.0)

    def test_total_power(self):
        assert self._report().total_power_watts == pytest.approx(16.0)

    def test_computation_rate(self):
        assert self._report().computation_tflops == pytest.approx(5.0)

    def test_empty_report(self):
        rep = SimulationReport(horizon=1.0, streams={}, servers={}, total_flops=0.0)
        assert np.isnan(rep.mean_latency)
        assert rep.max_jitter == 0.0
