"""Measurement containers produced by a simulation run.

``SimulationReport`` is the simulator's entire public surface to the
scheduler: per-stream latency/jitter statistics and per-server resource
usage, plus the aggregate outcome quantities that §3's outcome functions
model (mean e2e latency, total bandwidth, total computation, total
power).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class StreamMetrics:
    """Per-stream frame timing statistics."""

    stream_id: int
    latencies: np.ndarray  # e2e seconds per completed frame
    queueing_delays: np.ndarray  # seconds spent waiting at the server
    frames_emitted: int
    frames_completed: int

    def __post_init__(self) -> None:
        self.latencies = np.asarray(self.latencies, dtype=float)
        self.queueing_delays = np.asarray(self.queueing_delays, dtype=float)

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies.size else float("nan")

    @property
    def max_jitter(self) -> float:
        """Worst queueing delay; exactly zero for a zero-jitter schedule."""
        return float(np.max(self.queueing_delays)) if self.queueing_delays.size else 0.0


@dataclass
class ServerMetrics:
    """Per-server resource accounting over the horizon."""

    server_id: int
    utilization: float  # busy fraction in [0, ~1]
    energy_joules: float
    frames_processed: int
    uplink_mbps: float  # mean delivered uplink throughput


@dataclass
class SimulationReport:
    """Everything observed in one run."""

    horizon: float
    streams: dict[int, StreamMetrics]
    servers: dict[int, ServerMetrics]
    total_flops: float  # TFLOPs executed over the horizon

    @property
    def mean_latency(self) -> float:
        """Mean of per-stream mean latencies (Eq. 5's aggregate)."""
        vals = [m.mean_latency for m in self.streams.values() if m.latencies.size]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def max_jitter(self) -> float:
        """Worst queueing delay across all streams."""
        vals = [m.max_jitter for m in self.streams.values()]
        return float(np.max(vals)) if vals else 0.0

    @property
    def total_bandwidth_mbps(self) -> float:
        return float(sum(s.uplink_mbps for s in self.servers.values()))

    @property
    def total_power_watts(self) -> float:
        return float(sum(s.energy_joules for s in self.servers.values())) / self.horizon

    @property
    def computation_tflops(self) -> float:
        """Aggregate compute rate (TFLOP/s) over the horizon."""
        return self.total_flops / self.horizon
