"""Serve-loop events: the admission/arrival queue and its persistence.

The serve loop consumes a time-ordered stream of :class:`ServeEvent`
records — stream churn, bandwidth drift, server membership, and drift
alarms — grouped into epochs by the service's epoch clock.

Determinism is the core contract: a :class:`EventQueue` pops events in
``(time, submission order)`` order regardless of push order, and an
:class:`EventLog` JSON round-trips byte-for-byte, so the same seed and
log always reproduce the same decision sequence.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "SERVE_EVENT_KINDS",
    "ServeEvent",
    "EventQueue",
    "EventLog",
]

#: Recognized serve event kinds (the ``serve.*`` glossary of the README).
SERVE_EVENT_KINDS = (
    "stream_join",
    "stream_leave",
    "bandwidth_drift",
    "server_down",
    "server_up",
    "drift",
)


@dataclass(frozen=True)
class ServeEvent:
    """One serve-loop occurrence.

    Parameters
    ----------
    time:
        Wall-clock seconds on the service's simulated timeline.
    kind:
        One of :data:`SERVE_EVENT_KINDS`.
    target:
        Stream id (stream kinds), server index (server/bandwidth
        kinds), or ``-1`` when not applicable (``drift``).
    value:
        Kind-specific parameter — content texture for ``stream_join``,
        bandwidth multiplier for ``bandwidth_drift``.
    """

    time: float
    kind: str
    target: int = -1
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SERVE_EVENT_KINDS:
            raise ValueError(
                f"unknown serve event kind {self.kind!r}; "
                f"choose from {SERVE_EVENT_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.kind == "bandwidth_drift":
            v = 1.0 if self.value is None else float(self.value)
            if not (0 < v <= 1):
                raise ValueError(f"bandwidth factor must be in (0, 1], got {v}")
            object.__setattr__(self, "value", v)
        if self.kind == "stream_join" and self.value is not None:
            if self.value <= 0:
                raise ValueError(f"join texture must be > 0, got {self.value}")
        if self.kind != "drift" and self.target < 0:
            raise ValueError(
                f"{self.kind} needs a non-negative target, got {self.target}"
            )

    def to_dict(self) -> dict:
        out = {"time": float(self.time), "kind": self.kind, "target": int(self.target)}
        if self.value is not None:
            out["value"] = float(self.value)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ServeEvent":
        return cls(
            time=float(d["time"]),
            kind=str(d["kind"]),
            target=int(d.get("target", -1)),
            value=d.get("value"),
        )


class EventQueue:
    """Deterministic time-ordered event queue (min-heap).

    Ties on ``time`` break by submission order, so the pop sequence is
    a pure function of the push sequence — the property the
    bit-identical-replay tests pin down.
    """

    def __init__(self, events: Iterable[ServeEvent] = ()) -> None:
        self._heap: list[tuple[float, int, ServeEvent]] = []
        self._seq = 0
        for e in events:
            self.push(e)

    def push(self, event: ServeEvent) -> None:
        heapq.heappush(self._heap, (event.time, self._seq, event))
        self._seq += 1

    def peek(self) -> ServeEvent | None:
        """Next event without removing it (``None`` when empty)."""
        return self._heap[0][2] if self._heap else None

    def pop(self) -> ServeEvent:
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __iter__(self) -> Iterator[ServeEvent]:
        """Drain the queue in order (consumes it)."""
        while self._heap:
            yield self.pop()


@dataclass(frozen=True)
class EventLog:
    """A replayable churn workload: events plus the topology they assume.

    ``seed`` records the generator seed (informational; replay never
    re-draws).  ``n_streams``/``n_servers`` pin the initial topology so
    ``repro serve run --events`` can rebuild a matching problem, and
    ``horizon_s`` is the simulated duration the events span.
    """

    events: tuple[ServeEvent, ...] = ()
    seed: int | None = None
    n_streams: int = 0
    n_servers: int = 0
    horizon_s: float = 0.0

    def __post_init__(self) -> None:
        # Stable sort keeps generation order among same-time events.
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ServeEvent]:
        return iter(self.events)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_streams": int(self.n_streams),
            "n_servers": int(self.n_servers),
            "horizon_s": float(self.horizon_s),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EventLog":
        return cls(
            events=tuple(ServeEvent.from_dict(e) for e in d.get("events", ())),
            seed=d.get("seed"),
            n_streams=int(d.get("n_streams", 0)),
            n_servers=int(d.get("n_servers", 0)),
            horizon_s=float(d.get("horizon_s", 0.0)),
        )

    def save(self, path) -> Path:
        """Write the log as sorted-key JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, path) -> "EventLog":
        return cls.from_dict(json.loads(Path(path).read_text()))
