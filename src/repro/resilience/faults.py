"""Deterministic fault plans.

A fault plan is an :class:`~repro.serve.events.EventLog` of
:class:`~repro.serve.events.ServeEvent` records — the topology events the
serve loop consumes: ``server_down``/``server_up``, ``bandwidth_drift``
(a restore is a drift back to factor 1.0) and ``stream_leave``/
``stream_join``.  :class:`repro.resilience.chaos.ChaosRunner` folds each
event into the surviving servers, uplink factors and active streams and
asks the scheduler to replan on that cluster (``repro chaos``); ``repro
serve run --events`` replays the same file.

Plans come from a compact CLI spec syntax (:func:`parse_fault_spec`,
:func:`from_specs`: ``crash:1@0.5``, ``bw:0@2.0x0.25``, …) or from the
seeded generator :func:`random` — the same seed always yields the same
plan, which the determinism tests rely on.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.serve.events import EventLog, ServeEvent
from repro.utils import as_generator
from repro.utils.rng import RngLike

#: Compact spec aliases (``parse_fault_spec``): alias -> (serve kind,
#: value when the spec gives none).
_SPEC_ALIASES = {
    "crash": ("server_down", None),
    "recover": ("server_up", None),
    "bw": ("bandwidth_drift", 0.1),
    "restore": ("bandwidth_drift", 1.0),
    "leave": ("stream_leave", None),
    "join": ("stream_join", None),
}

#: Primary fault kinds :func:`random` draws from, in draw order; each
#: gets a matching recovery event.
_RANDOM_KINDS = ("server_down", "bandwidth_drift", "stream_leave")


def parse_fault_spec(spec: str) -> ServeEvent:
    """Parse one compact CLI fault spec.

    Syntax: ``<kind>:<target>@<time>[x<value>]`` where ``kind`` is a
    serve event kind or an alias (``crash``, ``recover``, ``bw``,
    ``restore``, ``leave``, ``join``).  ``bw`` without a value drops the
    uplink to 10%.  Examples::

        crash:1@0.5        server 1 goes down at t=0.5
        bw:0@2.0x0.25      server 0's uplink drops to 25% at t=2.0
        leave:3@1.0        stream 3 leaves at t=1.0
    """
    try:
        head, time_part = spec.split("@", 1)
        kind_part, target_part = head.split(":", 1)
    except ValueError:
        raise ValueError(
            f"bad fault spec {spec!r}; expected '<kind>:<target>@<time>[x<value>]'"
        ) from None
    name = kind_part.strip().lower()
    kind, value = _SPEC_ALIASES.get(name, (name, None))
    time_str = time_part
    if "x" in time_part:
        time_str, value_str = time_part.split("x", 1)
        value = float(value_str)
    return ServeEvent(
        time=float(time_str), kind=kind, target=int(target_part), value=value
    )


def from_specs(specs: Iterable[str]) -> EventLog:
    """Build a plan from compact CLI specs (:func:`parse_fault_spec`)."""
    return EventLog(events=tuple(parse_fault_spec(s) for s in specs))


def random(
    *,
    n_servers: int,
    n_streams: int = 0,
    horizon: float = 1.0,
    n_faults: int = 3,
    rng: RngLike = 0,
) -> EventLog:
    """Seeded random plan: the same ``rng`` always yields the same plan.

    Draws ``n_faults`` primary faults uniformly over ``(0, horizon)``;
    each gets a matching recovery event halfway between the fault and
    the horizon.  Stream faults are skipped when ``n_streams == 0``.  At
    most one concurrent server crash is generated (a plan that kills the
    whole cluster is not a degradation scenario, it is an outage).
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1, got {n_servers}")
    gen = as_generator(rng)
    kinds = _RANDOM_KINDS if n_streams > 0 else _RANDOM_KINDS[:2]
    events: list[ServeEvent] = []
    # Closed down-time intervals of generated crashes; a new crash
    # whose window would touch an existing one is demoted to a
    # bandwidth drop, so at most one server is ever down at a time.
    crash_windows: list[tuple[float, float]] = []
    for _ in range(int(n_faults)):
        kind = str(gen.choice(kinds))
        t = float(gen.uniform(0.05, 0.95)) * horizon
        end = (t + horizon) / 2.0
        if kind == "server_down":
            if any(t <= e1 and t0 <= end for t0, e1 in crash_windows):
                kind = "bandwidth_drift"
            else:
                crash_windows.append((t, end))
                target = int(gen.integers(0, n_servers))
                events.append(ServeEvent(t, "server_down", target))
                events.append(ServeEvent(end, "server_up", target))
                continue
        if kind == "bandwidth_drift":
            target = int(gen.integers(0, n_servers))
            factor = float(gen.uniform(0.05, 0.5))
            events.append(ServeEvent(t, "bandwidth_drift", target, factor))
            events.append(ServeEvent(end, "bandwidth_drift", target, 1.0))
        else:
            target = int(gen.integers(0, n_streams))
            events.append(ServeEvent(t, "stream_leave", target))
            events.append(ServeEvent(end, "stream_join", target))
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    return EventLog(
        events=tuple(events),
        seed=seed,
        n_streams=n_streams,
        n_servers=n_servers,
        horizon_s=horizon,
    )
