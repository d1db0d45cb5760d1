"""Minimal heap-based discrete-event engine.

Events are ``(time, priority, seq, payload)`` tuples in a binary heap.
The explicit ``seq`` tie-breaker makes simultaneous events deterministic
(FIFO in insertion order), which the jitter theorems rely on: a frame
arriving exactly when the previous one completes must not be counted as
delayed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(order=True)
class Event:
    """A scheduled occurrence; ordering is (time, priority, seq)."""

    time: float
    priority: int
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventQueue:
    """Deterministic event heap with a monotonic clock."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, action: Callable[[], None], *, priority: int = 0) -> Event:
        """Enqueue ``action`` at absolute ``time`` (must not be in the past)."""
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        ev = Event(time=float(time), priority=priority, seq=next(self._counter), action=action)
        heapq.heappush(self._heap, ev)
        return ev

    def step(self) -> bool:
        """Pop and run the next event.  Returns False when the heap is empty."""
        if not self._heap:
            return False
        ev = heapq.heappop(self._heap)
        self._now = ev.time
        ev.action()
        return True

    def run(self, until: Optional[float] = None, *, max_events: int = 10_000_000) -> int:
        """Run events until the horizon (inclusive) or exhaustion.

        Returns the number of events executed.  ``max_events`` guards
        against runaway self-rescheduling loops.
        """
        executed = 0
        while self._heap and executed < max_events:
            if until is not None and self._heap[0].time > until:
                break
            self.step()
            executed += 1
        if executed >= max_events:
            raise RuntimeError(f"event budget exhausted ({max_events} events)")
        if until is not None and until > self._now:
            self._now = until
        return executed
