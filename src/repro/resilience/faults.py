"""Deterministic fault plans.

A :class:`FaultPlan` is an ordered, immutable list of
:class:`FaultEvent` records, replayed at topology level:
:class:`repro.resilience.chaos.ChaosRunner` folds each event into the
surviving servers, uplink factors and active streams, and asks the
scheduler to replan on that cluster (``repro chaos``).

Plans are plain data: a JSON dict via :meth:`FaultPlan.to_dict`, a
compact CLI spec syntax via :func:`parse_fault_spec` (``crash:1@0.5``,
``bw:0@2.0x0.25``, …), and seeded random generation via
:meth:`FaultPlan.random` — the same seed always yields the same plan,
which the determinism tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.utils import as_generator
from repro.utils.rng import RngLike

#: Recognized fault kinds.
FAULT_KINDS = (
    "server_crash",
    "server_recover",
    "bandwidth_drop",
    "bandwidth_restore",
    "stream_leave",
    "stream_join",
)

#: Compact spec aliases (``parse_fault_spec``).
_SPEC_ALIASES = {
    "crash": "server_crash",
    "recover": "server_recover",
    "bw": "bandwidth_drop",
    "bw_drop": "bandwidth_drop",
    "restore": "bandwidth_restore",
    "bw_restore": "bandwidth_restore",
    "leave": "stream_leave",
    "join": "stream_join",
}

#: Default bandwidth multiplier when a drop spec omits the factor.
_DEFAULT_BW_FACTOR = 0.1


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One fault occurrence.

    Parameters
    ----------
    time:
        Seconds on the plan's timeline; the chaos runner replans once
        per distinct time.
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        Server index (server/bandwidth kinds) or stream id (stream
        kinds).
    value:
        Kind-specific parameter — the bandwidth multiplier for
        ``bandwidth_drop`` (ignored elsewhere).
    """

    time: float
    kind: str
    target: int
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.time < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.target < 0:
            raise ValueError(f"fault target must be >= 0, got {self.target}")
        if self.kind == "bandwidth_drop":
            v = _DEFAULT_BW_FACTOR if self.value is None else float(self.value)
            if not (0 < v <= 1):
                raise ValueError(f"bandwidth factor must be in (0, 1], got {v}")
            object.__setattr__(self, "value", v)

    def to_dict(self) -> dict:
        out = {"time": float(self.time), "kind": self.kind, "target": int(self.target)}
        if self.value is not None:
            out["value"] = float(self.value)
        return out


def parse_fault_spec(spec: str) -> FaultEvent:
    """Parse one compact CLI fault spec.

    Syntax: ``<kind>:<target>@<time>[x<value>]`` where ``kind`` is a
    full kind name or an alias (``crash``, ``recover``, ``bw``,
    ``restore``, ``leave``, ``join``).  Examples::

        crash:1@0.5        server 1 crashes at t=0.5
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
    kind = _SPEC_ALIASES.get(kind_part.strip().lower(), kind_part.strip().lower())
    value: float | None = None
    if "x" in time_part:
        time_str, value_str = time_part.split("x", 1)
        value = float(value_str)
    else:
        time_str = time_part
    return FaultEvent(
        time=float(time_str), kind=kind, target=int(target_part), value=value
    )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered sequence of fault events.

    ``seed`` records the generator seed for plans built by
    :meth:`random` (purely informational; replay never re-draws).
    """

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_specs(cls, specs: Iterable[str]) -> "FaultPlan":
        """Build a plan from compact CLI specs (:func:`parse_fault_spec`)."""
        return cls(events=tuple(parse_fault_spec(s) for s in specs))

    @classmethod
    def random(
        cls,
        *,
        n_servers: int,
        n_streams: int = 0,
        horizon: float = 1.0,
        n_faults: int = 3,
        recover: bool = True,
        kinds: Sequence[str] = ("server_crash", "bandwidth_drop", "stream_leave"),
        rng: RngLike = 0,
    ) -> "FaultPlan":
        """Seeded random plan: the same ``rng`` always yields the same plan.

        Draws ``n_faults`` primary faults uniformly over ``(0,
        horizon)``; with ``recover=True`` each gets a matching
        recovery event halfway between the fault and the horizon.
        Stream kinds are skipped when ``n_streams == 0``.  At most one
        concurrent server crash is generated (a plan that kills the
        whole cluster is not a degradation scenario, it is an outage).
        """
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        gen = as_generator(rng)
        usable = [
            k
            for k in kinds
            if n_streams > 0 or not k.startswith("stream_")
        ]
        if not usable:
            raise ValueError("no usable fault kinds for this topology")
        events: list[FaultEvent] = []
        # Closed down-time intervals of generated crashes; a new crash
        # whose window would touch an existing one is demoted to a
        # bandwidth drop, so at most one server is ever down at a time.
        crash_windows: list[tuple[float, float]] = []
        for _ in range(int(n_faults)):
            kind = str(gen.choice(usable))
            t = float(gen.uniform(0.05, 0.95)) * horizon
            if kind == "server_crash":
                end = (t + horizon) / 2.0 if recover else horizon
                if any(t <= e1 and t0 <= end for t0, e1 in crash_windows):
                    kind = "bandwidth_drop"
                else:
                    crash_windows.append((t, end))
                    target = int(gen.integers(0, n_servers))
                    events.append(FaultEvent(t, "server_crash", target))
                    if recover:
                        events.append(FaultEvent(end, "server_recover", target))
                    continue
            if kind == "bandwidth_drop":
                target = int(gen.integers(0, n_servers))
                factor = float(gen.uniform(0.05, 0.5))
                events.append(FaultEvent(t, "bandwidth_drop", target, factor))
                if recover:
                    events.append(
                        FaultEvent((t + horizon) / 2.0, "bandwidth_restore", target)
                    )
            elif kind == "stream_leave":
                target = int(gen.integers(0, n_streams))
                events.append(FaultEvent(t, "stream_leave", target))
                if recover:
                    events.append(
                        FaultEvent((t + horizon) / 2.0, "stream_join", target)
                    )
        seed = int(rng) if isinstance(rng, (int, np.integer)) else None
        return cls(events=tuple(events), seed=seed)
