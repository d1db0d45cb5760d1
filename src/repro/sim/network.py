"""Uplink model: per-server serialization link.

The paper's cameras share a WiFi router but each edge server has its own
uplink bandwidth B_q (§3, Eq. 5; §5.2 draws them from {5..30} Mbps).  The
link is a FIFO serializer: a frame of ``bits`` occupies the link for
``bits / bandwidth`` seconds, and concurrent frames to the same server
queue behind each other.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.events import EventQueue
from repro.utils import check_positive


class UplinkLink:
    """FIFO serializing link toward one edge server."""

    def __init__(self, server_id: int, bandwidth_mbps: float, queue: EventQueue) -> None:
        check_positive("bandwidth_mbps", bandwidth_mbps)
        self.server_id = int(server_id)
        self.bandwidth_mbps = float(bandwidth_mbps)
        self._queue = queue
        self._free_at = 0.0
        self.bits_sent = 0.0

    @property
    def bandwidth_bps(self) -> float:
        return self.bandwidth_mbps * 1e6

    def transfer_time(self, bits: float) -> float:
        """Pure serialization delay for ``bits`` (no queueing)."""
        check_positive("bits", bits)
        return bits / self.bandwidth_bps

    def send(self, bits: float, on_delivered: Callable[[float], None]) -> float:
        """Enqueue ``bits`` now; invoke ``on_delivered(arrival_time)``.

        Returns the scheduled arrival time.  Transmission begins when the
        link frees up (FIFO), so bursts to the same server serialize.
        """
        start = max(self._queue.now, self._free_at)
        arrival = start + self.transfer_time(bits)
        self._free_at = arrival
        self.bits_sent += bits
        self._queue.schedule(arrival, lambda t=arrival: on_delivered(t))
        return arrival

    def mean_throughput(self, horizon: float) -> float:
        """Average delivered Mbps over ``[0, horizon]``."""
        check_positive("horizon", horizon)
        return self.bits_sent / horizon / 1e6
