"""Priority-aware admission control with benefit-aware eviction.

The engine's :meth:`~repro.serve.engine.IncrementalPlanner.admit` is a
pure capacity check: a join either fits at some config or is rejected.
Under overload that is the wrong policy — the paper's whole premise is
that streams differ in *benefit*, so when capacity runs out the system
should keep the valuable streams and shed the cheap ones.
:class:`AdmissionController` layers exactly that on top of the planner:

* **priority classes** — every stream carries an integer priority
  (higher = more important, default 0) from a ``priority_map``; a join
  may only ever displace streams of *strictly lower* priority, so a
  low class can never evict a high one no matter how its benefit
  scores (the invariant the property suite pins);
* **benefit-aware eviction** — eviction candidates (the strictly
  lower classes only; a join with none is rejected unscored) are ranked
  by :meth:`~repro.serve.engine.IncrementalPlanner.eviction_scores`
  (marginal benefit per unit utilization), lowest first within each
  priority class, and removed one at a time until the joiner fits;
  if it still doesn't fit, every victim is restored at its original
  config (transactional, like the engine's own mutations);
* **token-bucket join guard** — at most ``join_burst`` joins
  instantly and ``join_rate_per_epoch`` sustained; excess joins are
  *shed* (cheap refusal before any planner work), which is what keeps
  a flash crowd from stalling the epoch loop;
* **queue-depth load shedding** — when the unprocessed event backlog
  exceeds ``max_queue_depth`` (or the service is in remediation
  ``shed_mode``), joins below ``protect_priority`` are shed outright.

Everything is deterministic (epoch-indexed bucket, sorted victim
order, no wall clock) and picklable, so checkpointed runs replay
bit-identically.  The service emits ``admit.rejected`` /
``admit.shed`` / ``admit.evicted_for`` counters from the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.obs import telemetry

__all__ = ["AdmissionController", "AdmissionOutcome", "parse_priority_map"]


def parse_priority_map(spec: str | Mapping) -> tuple[dict[int, int], int]:
    """Parse a priority-map spec into ``(per-stream map, default)``.

    Accepts a mapping (JSON object) or a compact string
    ``"0=2,1=2,default=0"``; keys are stream ids (or ``default``),
    values integer priorities (higher = more important).
    """
    mapping: dict[int, int] = {}
    default = 0
    if isinstance(spec, str):
        items = [part for part in spec.split(",") if part.strip()]
        pairs = []
        for part in items:
            if "=" not in part:
                raise ValueError(
                    f"bad priority-map entry {part!r}; expected 'sid=prio'"
                )
            key, value = part.split("=", 1)
            pairs.append((key.strip(), value.strip()))
    else:
        pairs = [(str(k), v) for k, v in spec.items()]
    for key, value in pairs:
        if key == "default":
            default = int(value)
        else:
            mapping[int(key)] = int(value)
    return mapping, default


@dataclass
class AdmissionOutcome:
    """What happened to one join request."""

    sid: int
    action: str  # "admitted" | "rejected" | "shed"
    config: tuple[float, float] | None = None
    evicted: list[int] = field(default_factory=list)
    #: streams dropped by a failed eviction rollback (pathological;
    #: reported so the service keeps its texture table consistent).
    dropped: list[int] = field(default_factory=list)
    priority: int = 0
    reason: str = ""

    @property
    def admitted(self) -> bool:
        return self.action == "admitted"


@dataclass
class _TokenBucket:
    """Deterministic epoch-indexed token bucket (no wall clock)."""

    rate: float  # tokens added per epoch
    burst: float  # bucket capacity
    tokens: float = 0.0
    last_epoch: int | None = None

    def take(self, epoch: int) -> bool:
        if self.last_epoch is None:
            self.tokens = self.burst
        elif epoch > self.last_epoch:
            self.tokens = min(
                self.burst, self.tokens + self.rate * (epoch - self.last_epoch)
            )
        self.last_epoch = int(epoch)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Decide joins: admit (possibly evicting), reject, or shed.

    Parameters
    ----------
    priority_map:
        ``stream id -> priority class`` (higher = more important);
        unlisted streams get ``default_priority``.
    default_priority:
        Priority of streams absent from the map (default 0).
    join_rate_per_epoch, join_burst:
        Token-bucket guard on join bursts; ``None`` rate disables it.
        ``join_burst`` defaults to ``max(2 * rate, 1)``.
    max_queue_depth:
        Shed joins (below ``protect_priority``) while the unprocessed
        event backlog exceeds this; ``None`` disables.
    protect_priority:
        Joins at or above this class bypass queue-depth/remediation
        shedding (``None`` = shed every class).
    max_evictions_per_join:
        Bound on victims removed for one join before giving up.

    The default-constructed controller (no map, no bucket, no depth
    limit) admits exactly what the bare planner admits — existing runs
    and checkpoints keep their behavior.
    """

    def __init__(
        self,
        *,
        priority_map: Mapping[int, int] | None = None,
        default_priority: int = 0,
        join_rate_per_epoch: float | None = None,
        join_burst: float | None = None,
        max_queue_depth: int | None = None,
        protect_priority: int | None = None,
        max_evictions_per_join: int = 4,
    ) -> None:
        if join_rate_per_epoch is not None and join_rate_per_epoch <= 0:
            raise ValueError(
                f"join_rate_per_epoch must be > 0, got {join_rate_per_epoch}"
            )
        if join_burst is not None and join_burst < 1:
            raise ValueError(f"join_burst must be >= 1, got {join_burst}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if max_evictions_per_join < 0:
            raise ValueError(
                f"max_evictions_per_join must be >= 0, "
                f"got {max_evictions_per_join}"
            )
        self.priority_map = {
            int(k): int(v) for k, v in (priority_map or {}).items()
        }
        self.default_priority = int(default_priority)
        self.max_queue_depth = max_queue_depth
        self.protect_priority = protect_priority
        self.max_evictions_per_join = int(max_evictions_per_join)
        self._bucket = None
        if join_rate_per_epoch is not None:
            burst = (
                float(join_burst)
                if join_burst is not None
                else max(2.0 * join_rate_per_epoch, 1.0)
            )
            self._bucket = _TokenBucket(
                rate=float(join_rate_per_epoch), burst=burst
            )

    # -- priorities --------------------------------------------------------
    def priority_of(self, sid: int) -> int:
        return self.priority_map.get(sid, self.default_priority)

    @cached_property
    def _floor(self) -> int:
        """The lowest class any stream can hold: a joiner at or below it
        has no strictly lower class to evict.  Derived on first use, so
        a controller pickled before it existed resumes."""
        return min([self.default_priority, *self.priority_map.values()])

    # -- the decision ------------------------------------------------------
    def request_join(
        self,
        planner,
        sid: int,
        texture: float,
        *,
        epoch: int = 0,
        queue_depth: int = 0,
        min_config: bool = False,
        shed_mode: bool = False,
    ) -> AdmissionOutcome:
        """Decide one join against the live planner.

        ``min_config`` restricts admission to the cheapest knob pair
        (brownout operation — no ranked-candidate scan, no upgrade).
        ``shed_mode`` is the remediation override: treat the system as
        over backlog regardless of ``queue_depth``.
        """
        prio = self.priority_of(sid)
        if self._bucket is not None and not self._bucket.take(epoch):
            return AdmissionOutcome(
                sid, "shed", priority=prio, reason="token_bucket"
            )
        over_depth = (
            self.max_queue_depth is not None
            and queue_depth > self.max_queue_depth
        )
        if (shed_mode or over_depth) and (
            self.protect_priority is None or prio < self.protect_priority
        ):
            return AdmissionOutcome(
                sid,
                "shed",
                priority=prio,
                reason="remediation" if shed_mode else "queue_depth",
            )
        config = self._try_admit(planner, sid, texture, min_config)
        if config is not None:
            return AdmissionOutcome(sid, "admitted", config, priority=prio)
        return self._admit_with_eviction(planner, sid, texture, prio, min_config)

    def _try_admit(
        self, planner, sid: int, texture: float, min_config: bool
    ) -> tuple[float, float] | None:
        if min_config:
            r = min(planner.config_space.resolutions)
            s = min(planner.config_space.fps_values)
            return (r, s) if planner.add_stream(sid, texture, r, s) else None
        return planner.admit(sid, texture)

    def _admit_with_eviction(
        self, planner, sid: int, texture: float, prio: int, min_config: bool
    ) -> AdmissionOutcome:
        """Evict strictly-lower-priority, lowest-score streams first.

        Victims come off one at a time (cheapest class, then lowest
        marginal benefit per unit utilization, then id — fully
        deterministic); after each removal the joiner retries.  If the
        budget runs out the removals are rolled back in reverse at
        their original configs.  Only the strictly-lower-priority
        streams are scored, and none when there are none: a score
        depends on its own stream alone, so the victims and their
        order are those of scoring the whole fleet.  A joiner in the
        lowest class any stream can hold (:attr:`_floor`) is refused
        without looking at the fleet.
        """
        if self.max_evictions_per_join == 0:
            return AdmissionOutcome(
                sid, "rejected", priority=prio, reason="no_fit"
            )
        if prio <= self._floor:  # no stream can hold a lower class
            return AdmissionOutcome(
                sid, "rejected", priority=prio, reason="no_lower_priority"
            )
        lower: dict[int, int] = {}
        for v in planner.entries:
            p = self.priority_of(v)
            if p < prio:
                lower[v] = p
        if not lower:
            return AdmissionOutcome(
                sid, "rejected", priority=prio, reason="no_lower_priority"
            )
        scores = planner.eviction_scores(lower)
        victims = sorted(lower, key=lambda v: (lower[v], scores[v], v))
        removed: list[tuple[int, float, float, float]] = []
        for vid in victims[: self.max_evictions_per_join]:
            entry = planner.entries[vid]
            removed.append(
                (vid, entry.texture, entry.resolution, entry.fps)
            )
            planner.remove_stream(vid)
            config = self._try_admit(planner, sid, texture, min_config)
            if config is not None:
                return AdmissionOutcome(
                    sid,
                    "admitted",
                    config,
                    evicted=[v[0] for v in removed],
                    priority=prio,
                    reason="evicted_lower_priority",
                )
        # Roll back: re-adding at the original configs succeeds because
        # the capacity the victims occupied is still free (the joiner
        # was never admitted).  First-fit may land subs in different
        # groups than before, which is fine — group membership is not
        # part of the decision signature, only configs/assignment are,
        # and those re-derive from the restored entries.
        dropped: list[int] = []
        for vid, tex, r, s in reversed(removed):
            if not planner.add_stream(vid, tex, r, s):
                # Unreachable by the capacity argument; account for it
                # anyway so a surprise never silently corrupts state.
                dropped.append(vid)
                telemetry.counter("admit.rollback_drops")
        return AdmissionOutcome(
            sid,
            "rejected",
            dropped=dropped,
            priority=prio,
            reason="eviction_budget",
        )

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe config/state dump (``/varz``, WAL meta)."""
        return {
            "priority_map": {str(k): v for k, v in self.priority_map.items()},
            "default_priority": self.default_priority,
            "join_rate_per_epoch": None if self._bucket is None else self._bucket.rate,
            "join_burst": None if self._bucket is None else self._bucket.burst,
            "max_queue_depth": self.max_queue_depth,
            "protect_priority": self.protect_priority,
            "max_evictions_per_join": self.max_evictions_per_join,
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "AdmissionController":
        """Rebuild from a :meth:`snapshot` dict (WAL recovery)."""
        priority_map = {
            int(k): int(v) for k, v in (spec.get("priority_map") or {}).items()
        }
        return cls(
            priority_map=priority_map,
            default_priority=int(spec.get("default_priority", 0)),
            join_rate_per_epoch=spec.get("join_rate_per_epoch"),
            join_burst=spec.get("join_burst"),
            max_queue_depth=spec.get("max_queue_depth"),
            protect_priority=spec.get("protect_priority"),
            max_evictions_per_join=int(spec.get("max_evictions_per_join", 4)),
        )
