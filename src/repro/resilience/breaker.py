"""Circuit breaker for the planner's expensive full-solve path.

A full solve that starts missing its deadline (or raising) under
overload does not fail in isolation: every blown solve stalls the
epoch loop, which deepens the backlog, which makes the next solve
bigger and slower — the classic retry death spiral.
:class:`CircuitBreaker` is the standard cure, adapted to the serve
loop's *epoch clock* instead of wall time so that a replayed run
transitions at the same epochs as the original:

* **closed** — full solves run normally; ``failure_threshold``
  consecutive failures (an exception, or a solve slower than
  ``deadline_s``) trip the breaker;
* **open** — full solves are short-circuited (the service falls back
  to incremental-only *brownout* operation) for ``cooldown_epochs``;
* **half_open** — after the cooldown, the next wanted full solve runs
  as a probe: ``probe_successes`` consecutive good solves re-close the
  breaker, one bad probe re-opens it and restarts the cooldown.

The breaker is pure picklable state (ints and strings); it emits
``breaker.open`` / ``breaker.half_open`` / ``breaker.close`` telemetry
events and matching ``breaker.opens``/``breaker.half_opens``/
``breaker.closes`` counters on each transition.
"""

from __future__ import annotations

from repro.obs import telemetry

__all__ = ["BREAKER_STATES", "CircuitBreaker"]

#: Breaker states, healthiest first.  Index = numeric rank (the
#: ``repro_serve_breaker_state`` gauge value).
BREAKER_STATES = ("closed", "half_open", "open")


class CircuitBreaker:
    """Closed/open/half-open guard around a deadline-bound operation.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (while closed) that open the breaker.
    cooldown_epochs:
        Epochs the breaker stays open before allowing a half-open probe.
    probe_successes:
        Consecutive successful half-open probes required to re-close.
    deadline_s:
        Duration budget for one protected call; a slower call counts
        as a failure even if it returned.  ``None`` disables the
        deadline (only exceptions count) — the deterministic mode the
        recovery tests use.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_epochs: int = 8,
        probe_successes: int = 1,
        deadline_s: float | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_epochs < 1:
            raise ValueError(
                f"cooldown_epochs must be >= 1, got {cooldown_epochs}"
            )
        if probe_successes < 1:
            raise ValueError(
                f"probe_successes must be >= 1, got {probe_successes}"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_epochs = int(cooldown_epochs)
        self.probe_successes = int(probe_successes)
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self.state = "closed"
        self.failures = 0  # consecutive failures while closed
        self.successes = 0  # consecutive probe successes while half-open
        self.opened_epoch: int | None = None
        self.opens = 0  # lifetime transition counts (for summaries)
        self.closes = 0

    @property
    def rank(self) -> int:
        """Numeric state rank (``closed``=0, ``half_open``=1, ``open``=2)."""
        return BREAKER_STATES.index(self.state)

    def _transition(self, state: str, *, epoch: int, reason: str) -> str:
        self.state = state
        label = {"closed": "close", "half_open": "half_open", "open": "open"}[
            state
        ]
        telemetry.counter(f"breaker.{label}s")
        telemetry.event(
            f"breaker.{label}", epoch=int(epoch), reason=reason
        )
        return label

    def allow(self, epoch: int) -> bool:
        """May a protected call run at this epoch?

        While open, returns ``False`` until ``cooldown_epochs`` epochs
        have passed since the trip, then flips to half-open and lets
        one probe through.  Closed and half-open always allow.
        """
        if self.state == "open":
            opened = self.opened_epoch if self.opened_epoch is not None else epoch
            if epoch - opened < self.cooldown_epochs:
                return False
            self.successes = 0
            self._transition("half_open", epoch=epoch, reason="cooldown_over")
        return True

    def record(
        self,
        *,
        epoch: int,
        duration_s: float = 0.0,
        failed: bool = False,
    ) -> str | None:
        """Record one protected call's outcome; returns a transition label.

        ``failed`` marks an exception; a ``duration_s`` over
        ``deadline_s`` is also a failure.  Returns ``"open"``,
        ``"half_open"``, ``"close"``, or ``None`` when no state change
        occurred.
        """
        if not failed and self.deadline_s is not None:
            failed = duration_s > self.deadline_s
        if self.state == "half_open":
            if failed:
                self.opened_epoch = int(epoch)
                self.opens += 1
                self.failures = 0
                return self._transition("open", epoch=epoch, reason="probe_failed")
            self.successes += 1
            if self.successes >= self.probe_successes:
                self.failures = 0
                self.closes += 1
                return self._transition("closed", epoch=epoch, reason="probes_passed")
            return None
        # closed (an open breaker never reaches record(): allow() said no)
        if failed:
            self.failures += 1
            if self.failures >= self.failure_threshold:
                self.opened_epoch = int(epoch)
                self.opens += 1
                self.failures = 0
                return self._transition(
                    "open", epoch=epoch, reason="failure_threshold"
                )
            return None
        if self.failures:
            self.failures = 0
        return None
