"""Edge-server model: a FIFO inference queue over one accelerator.

A server processes one frame at a time (the Triton instance in the paper
runs a single TensorRT execution context per device).  Frames that arrive
while the accelerator is busy wait in FIFO order — that waiting time is
exactly the *delay jitter* of the paper's Figure 4.  The server also
integrates busy time into energy via the device profile.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.events import EventQueue
from repro.utils import check_positive
from repro.video.profiles import DeviceProfile, JETSON_NX_PROFILE


@dataclass
class QueuedFrame:
    """A frame waiting for (or undergoing) inference."""

    stream_id: int
    frame_id: int
    emit_time: float  # when the camera captured it
    arrival_time: float  # when it finished uplink transmission
    processing_time: float  # inference seconds required
    on_done: Optional[Callable[["QueuedFrame", float], None]] = None
    start_time: float = float("nan")
    finish_time: float = float("nan")

    @property
    def queueing_delay(self) -> float:
        """Seconds spent waiting behind other frames (the jitter term)."""
        return self.start_time - self.arrival_time


class EdgeServer:
    """FIFO single-executor inference server with energy accounting."""

    def __init__(
        self,
        server_id: int,
        queue: EventQueue,
        *,
        profile: DeviceProfile = JETSON_NX_PROFILE,
    ) -> None:
        self.server_id = int(server_id)
        self._queue = queue
        self.profile = profile
        self._pending: deque[QueuedFrame] = deque()
        self._busy = False
        self.busy_time = 0.0
        self.frames_processed = 0
        self.completed: list[QueuedFrame] = []

    def submit(self, frame: QueuedFrame) -> None:
        """Accept a frame at the current simulation time."""
        check_positive("processing_time", frame.processing_time)
        self._pending.append(frame)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        if not self._pending:
            self._busy = False
            return
        frame = self._pending.popleft()
        self._busy = True
        frame.start_time = self._queue.now
        finish = self._queue.now + frame.processing_time

        def _complete(fr: QueuedFrame = frame, t: float = finish) -> None:
            fr.finish_time = t
            self.busy_time += fr.processing_time
            self.frames_processed += 1
            self.completed.append(fr)
            if fr.on_done is not None:
                fr.on_done(fr, t)
            self._start_next()

        self._queue.schedule(finish, _complete, priority=-1)

    def energy_consumed(self, horizon: float) -> float:
        """Joules over ``[0, horizon]``: idle draw plus busy-time surplus."""
        check_positive("horizon", horizon)
        return self.profile.idle_power * horizon + self.profile.compute_power * self.busy_time

    def utilization(self, horizon: float) -> float:
        """Busy fraction of the horizon."""
        check_positive("horizon", horizon)
        return self.busy_time / horizon
