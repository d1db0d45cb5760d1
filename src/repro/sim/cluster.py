"""Cluster wiring: periodic streams feeding links feeding servers.

:class:`EdgeCluster` instantiates the event queue, one
:class:`~repro.sim.server.EdgeServer` + :class:`~repro.sim.network.UplinkLink`
per node, and a periodic frame source per stream.  Running the cluster
yields a :class:`~repro.sim.metrics.SimulationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import telemetry
from repro.sim.events import EventQueue
from repro.sim.metrics import ServerMetrics, SimulationReport, StreamMetrics
from repro.sim.network import UplinkLink
from repro.sim.server import EdgeServer, QueuedFrame
from repro.utils import check_positive
from repro.video.profiles import DeviceProfile, JETSON_NX_PROFILE


@dataclass(frozen=True)
class StreamSpec:
    """Runtime description of one periodic stream.

    Parameters
    ----------
    stream_id:
        Unique identifier.
    fps:
        Frame sampling rate s_i (frames per second).
    processing_time:
        p_i — inference seconds per frame on any (homogeneous) server.
    bits_per_frame:
        Encoded frame size, for uplink serialization and bandwidth.
    flops_per_frame:
        Compute cost per frame in TFLOPs (for the computation outcome).
    offset:
        Phase offset o(τ_i) of the first frame (Theorem 1's start times).
    """

    stream_id: int
    fps: float
    processing_time: float
    bits_per_frame: float
    flops_per_frame: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        check_positive("fps", self.fps)
        check_positive("processing_time", self.processing_time)
        check_positive("bits_per_frame", self.bits_per_frame)
        check_positive("flops_per_frame", self.flops_per_frame, strict=False)
        check_positive("offset", self.offset, strict=False)

    @property
    def period(self) -> float:
        """Inter-arrival period T_i = 1 / s_i."""
        return 1.0 / self.fps


class EdgeCluster:
    """N homogeneous edge servers with individual uplinks."""

    def __init__(
        self,
        bandwidths_mbps: Sequence[float],
        *,
        profile: DeviceProfile = JETSON_NX_PROFILE,
    ) -> None:
        if len(bandwidths_mbps) == 0:
            raise ValueError("cluster needs at least one server")
        self.queue = EventQueue()
        self.profile = profile
        self.servers = [
            EdgeServer(j, self.queue, profile=profile) for j in range(len(bandwidths_mbps))
        ]
        self.links = [
            UplinkLink(j, float(b), self.queue) for j, b in enumerate(bandwidths_mbps)
        ]

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def run(
        self,
        streams: Sequence[StreamSpec],
        assignment: Sequence[int],
        horizon: float,
    ) -> SimulationReport:
        """Simulate ``streams`` mapped by ``assignment`` for ``horizon`` s.

        ``assignment[i]`` is the 0-based server index for ``streams[i]``;
        ``-1`` drops the stream (it emits nothing).  Frames still in
        flight at the horizon are not counted as completed.
        """
        check_positive("horizon", horizon)
        if len(assignment) != len(streams):
            raise ValueError(
                f"{len(streams)} streams but {len(assignment)} assignment entries"
            )
        for q in assignment:
            if q != -1 and not (0 <= q < self.n_servers):
                raise ValueError(f"assignment {q} out of range for {self.n_servers} servers")

        emitted = {s.stream_id: 0 for s in streams}
        completed: dict[int, list[QueuedFrame]] = {s.stream_id: [] for s in streams}
        total_flops = 0.0

        def make_emitter(spec: StreamSpec, server: EdgeServer, link: UplinkLink):
            def emit() -> None:
                nonlocal total_flops
                emit_time = self.queue.now
                emitted[spec.stream_id] += 1
                frame_id = emitted[spec.stream_id]

                def on_delivered(arrival: float) -> None:
                    nonlocal total_flops
                    total_flops += spec.flops_per_frame
                    server.submit(
                        QueuedFrame(
                            stream_id=spec.stream_id,
                            frame_id=frame_id,
                            emit_time=emit_time,
                            arrival_time=arrival,
                            processing_time=spec.processing_time,
                            on_done=lambda fr, t: completed[spec.stream_id].append(fr),
                        )
                    )

                link.send(spec.bits_per_frame, on_delivered)
                nxt = emit_time + spec.period
                if nxt <= horizon:
                    self.queue.schedule(nxt, emit)

            return emit

        for spec, q in zip(streams, assignment):
            if q == -1:
                continue
            start = spec.offset
            if start <= horizon:
                self.queue.schedule(start, make_emitter(spec, self.servers[q], self.links[q]))

        with telemetry.span("sim.run"):
            self.queue.run(until=horizon)
        telemetry.counter("sim.frames_emitted", sum(emitted.values()))
        telemetry.counter(
            "sim.frames_completed", sum(len(v) for v in completed.values())
        )
        telemetry.counter("sim.runs")

        stream_metrics = {}
        for spec in streams:
            frames = completed[spec.stream_id]
            lat = np.array([f.finish_time - f.emit_time for f in frames])
            qd = np.array([f.queueing_delay for f in frames])
            stream_metrics[spec.stream_id] = StreamMetrics(
                stream_id=spec.stream_id,
                latencies=lat,
                queueing_delays=qd,
                frames_emitted=emitted[spec.stream_id],
                frames_completed=len(frames),
            )

        server_metrics = {
            srv.server_id: ServerMetrics(
                server_id=srv.server_id,
                utilization=srv.utilization(horizon),
                energy_joules=srv.energy_consumed(horizon),
                frames_processed=srv.frames_processed,
                uplink_mbps=link.mean_throughput(horizon),
            )
            for srv, link in zip(self.servers, self.links)
        }

        return SimulationReport(
            horizon=horizon,
            streams=stream_metrics,
            servers=server_metrics,
            total_flops=total_flops,
        )
