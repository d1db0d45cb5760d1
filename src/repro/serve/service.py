"""The long-lived scheduler service: epoch clock, event loop, decisions.

:class:`SchedulerService` turns "a scheduler run" into "a scheduler
process".  It holds the live schedule in an
:class:`~repro.serve.engine.IncrementalPlanner`, consumes
:class:`~repro.serve.events.ServeEvent` batches grouped by an epoch
clock, and emits one :class:`ServeDecision` per epoch:

* **warm-up** (epoch 0) is the only full solve on the happy path: a
  batch scheduler's :meth:`~repro.core.scheduler.Scheduler.optimize`
  (or the engine's greedy admission) seeds the per-stream decision
  cache;
* **steady state** replans incrementally — each event touches only the
  streams it names, every untouched stream's cached config is reused
  (``serve.cache_hits``), and the decision latency
  (:attr:`ServeDecision.latency_s`) is the whole epoch, from its first
  event to the return of the decision's WAL append;
* **full solves** after warm-up happen only on explicit ``drift``
  events or a ``reoptimize_every`` schedule, via the scheduler's
  :meth:`~repro.core.scheduler.Scheduler.replan` (PaMO warm-starts).

Overload hardening layers on top of that loop: joins route through an
:class:`~repro.serve.admission.AdmissionController` (priority classes,
benefit-aware eviction, token-bucket and queue-depth shedding), a
:class:`~repro.resilience.breaker.CircuitBreaker` guards the full-solve
path and drops the service into **brownout** (incremental-only deltas,
min-config admissions) when solves breach their deadline or raise, and
a :class:`RemediationPolicy` turns the attached
:class:`~repro.obs.health.HealthMonitor`'s ``alert.fired`` edges into
the same actions (enter brownout / shed joins / force a checkpoint)
instead of only reporting them.

§2.1's fixed-epoch monitoring loop runs on the same service:
:meth:`SchedulerService.run_epochs` replays the deployed decision
through a caller-supplied environment each epoch, and a
:class:`DriftDetector` verdict triggers a fresh batch solve.

Every count derived from decisions — epochs, solves, hits, rejects,
evictions, sheds, brownout epochs, the latency window and histogram —
lives in one :class:`ServeStats` tally that ``summary()``, ``/varz``,
``/healthz``, the SLO rules and ``repro serve report`` all read; the
live ``/metrics`` series are a scrape-time view of it
(:meth:`SchedulerService.metric_snapshot`).  Telemetry counters:
``serve.replans`` (epoch decisions), ``serve.full_solves`` (full solves
a decision records), ``serve.cache_hits``, ``serve.events``,
``serve.solved``, ``serve.repairs``, plus the hardening families
``admit.rejected``/``admit.shed``/``admit.evicted_for``, ``breaker.*``,
``serve.brownout_*``, and ``serve.suppressed_full_solves``.

The service pickles whole (planner, queue, scheduler, counters), so
:func:`repro.resilience.checkpoint.save_checkpoint` gives mid-run
checkpoint/resume with a bit-identical continuation — the determinism
tests replay the same event log straight and split across a resume and
require identical decision signatures.  With a
:class:`~repro.serve.wal.WriteAheadLog` attached, every submitted
event and every epoch decision fingerprint also lands in an
append-only journal, so a SIGKILL loses nothing the checkpoint missed
(``repro serve recover`` = checkpoint + WAL suffix replay).
"""

from __future__ import annotations

import hashlib
import struct
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import ScheduleDecision
from repro.obs import telemetry
from repro.obs.metrics import (
    DECISION_WINDOW,
    DEFAULT_BUCKETS,
    RollingWindow,
    histogram_snapshot,
)
from repro.pref.decision_maker import LinearL1Preference
from repro.sched.grouping import InfeasibleScheduleError
from repro.serve.admission import AdmissionController
from repro.serve.engine import IncrementalPlanner
from repro.serve.events import EventQueue, ServeEvent
from repro.utils import check_positive

__all__ = [
    "DECISION_WINDOW",
    "DriftDetector",
    "RemediationPolicy",
    "SchedulerService",
    "ServeDecision",
    "ServeEpochTick",
    "ServeStats",
    "RegistryFactory",
]

#: ``ServeStats`` total -> its ``repro_serve_*_total`` counter: name, help.
_COUNTERS = {
    "epochs": ("repro_serve_epochs_total", "epoch decisions made"),
    "full_solves": ("repro_serve_full_solves_total", "full re-solves"),
    "cache_hits": ("repro_serve_cache_hits_total", "cached stream decisions"),
    "solved": ("repro_serve_solved_total", "re-solved stream decisions"),
    "rejected": ("repro_serve_admission_rejects_total", "rejected joins"),
    "evicted": ("repro_serve_evictions_total", "evicted streams"),
    "shed": ("repro_serve_sheds_total", "joins shed by admission control"),
}

#: ``health_snapshot()`` key -> its ``repro_serve_*`` gauge: name, help.
#: A key whose value is ``None`` (no benefit scored yet) reads 0.
_GAUGES = {
    "n_streams": ("repro_serve_streams", "admitted streams"),
    "n_alive_servers": ("repro_serve_alive_servers", "servers up"),
    "queue_depth": ("repro_serve_queue_depth", "events waiting in the queue"),
    "cache_hit_ratio": (
        "repro_serve_cache_hit_ratio", "windowed cached/(cached+solved)"
    ),
    "benefit": ("repro_serve_benefit", "current total system benefit"),
    "benefit_baseline": (
        "repro_serve_benefit_baseline", "rolling mean benefit (window)"
    ),
    "benefit_drop_ratio": (
        "repro_serve_benefit_drop_ratio",
        "relative drop of current benefit vs rolling baseline",
    ),
    "mode_brownout": (
        "repro_serve_mode", "operating mode (0=normal, 1=brownout)"
    ),
    "breaker_state": (
        "repro_serve_breaker_state",
        "circuit breaker (0=closed, 1=half_open, 2=open)",
    ),
}


class ServeStats:
    """The one tally of serve decisions: lifetime totals plus the window.

    :meth:`SchedulerService._emit_decision` pushes each decision's
    ``serve.decision`` record (the one it logs) and
    :func:`repro.serve.report.summarize_serve_run` pushes each logged
    one, so :meth:`SchedulerService.summary`, ``/varz``,
    :meth:`SchedulerService.health_snapshot`, the SLO rules, every
    ``repro_serve_*`` series and ``repro serve report`` read every
    decision-derived count from one definition.  The lifetime latency
    histogram is :attr:`epochs`, :attr:`latency_sum` and
    :attr:`latency_buckets` (per-bucket counts over
    :data:`~repro.obs.metrics.DEFAULT_BUCKETS`).  The window parts
    — decision-latency percentiles, the cache-hit ratio and the benefit
    baseline — cover the last :data:`DECISION_WINDOW` decisions through
    a :class:`~repro.obs.metrics.RollingWindow` and running sums updated
    on push/evict; a full O(n) pass per epoch would blow the <2%
    metrics-overhead budget.
    """

    def __init__(self) -> None:
        self.epochs = 0
        self.events = 0
        self.full_solves = 0
        self.cache_hits = 0
        self.solved = 0
        self.rejected = 0
        self.evicted = 0
        self.shed = 0
        self.brownout_epochs = 0
        self.latency_sum = 0.0
        self.latency_buckets = [0] * (len(DEFAULT_BUCKETS) + 1)  # +Inf last
        self.benefit_first: float | None = None
        self.benefit_last: float | None = None
        self.latency = RollingWindow()
        self._entries: deque[tuple] = deque()
        self._window_hits = 0
        self._window_solved = 0
        self._benefit_sum = 0.0
        self._benefit_n = 0

    def push(self, record: Mapping) -> None:
        """Count one ``serve.decision`` record (list fields by length).

        The one mapping from record fields to counts; a field missing
        from a partial log counts as zero, empty or false.
        """
        latency_s = float(record.get("latency_s", 0.0))
        benefit = record.get("benefit")
        cache_hits = int(record.get("cache_hits", 0))
        solved = int(record.get("solved", 0))
        self.epochs += 1
        self.events += len(record.get("events", ()))
        self.full_solves += bool(record.get("full_solve"))
        self.cache_hits += cache_hits
        self.solved += solved
        self.rejected += len(record.get("rejected", ()))
        self.evicted += len(record.get("evicted", ()))
        self.shed += len(record.get("shed", ()))
        self.brownout_epochs += record.get("mode") == "brownout"
        self.latency_sum += latency_s
        self.latency_buckets[bisect_left(DEFAULT_BUCKETS, latency_s)] += 1
        self.latency.observe(latency_s)
        if len(self._entries) >= DECISION_WINDOW:
            old_benefit, old_hits, old_solved = self._entries.popleft()
            self._window_hits -= old_hits
            self._window_solved -= old_solved
            if old_benefit is not None:
                self._benefit_sum -= old_benefit
                self._benefit_n -= 1
        if benefit is not None:
            benefit = float(benefit)
            self._benefit_sum += benefit
            self._benefit_n += 1
            if self.benefit_first is None:
                self.benefit_first = benefit
            self.benefit_last = benefit
        self._entries.append((benefit, cache_hits, solved))
        self._window_hits += cache_hits
        self._window_solved += solved

    @property
    def baseline(self) -> float | None:
        """Rolling mean benefit over the window (None before any score)."""
        return self._benefit_sum / self._benefit_n if self._benefit_n else None

    @property
    def cache_hit_ratio(self) -> float:
        """Windowed cached / (cached + re-solved) decisions (0 when none)."""
        total = self._window_hits + self._window_solved
        return self._window_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """Every decision-derived count, keyed as ``summary()`` reports it."""
        lat = self.latency
        return {
            "epochs": self.epochs,
            "events": self.events,
            "full_solves": self.full_solves,
            "cache_hits": self.cache_hits,
            "solved": self.solved,
            "rejected": self.rejected,
            "evicted": self.evicted,
            "shed": self.shed,
            "brownout_epochs": self.brownout_epochs,
            "benefit_first": self.benefit_first,
            "benefit_last": self.benefit_last,
            "cache_hit_ratio": self.cache_hit_ratio,
            "decision_window": len(lat),
            "decision_p50_s": lat.percentile(0.50),
            "decision_p95_s": lat.percentile(0.95),
            "decision_p99_s": lat.percentile(0.99),
            "decision_max_s": lat.percentile(1.0),
            "decision_mean_s": self.latency_sum / self.epochs if self.epochs else 0.0,
        }


def _get_benefit_drop(svc, w: ServeStats) -> float | None:
    benefit, baseline = w.benefit_last, w.baseline
    if benefit is None or baseline is None:
        return None
    return max(0.0, (baseline - benefit) / max(abs(baseline), 1e-12))


#: ``metric name -> getter(service, stats)``: THE definition of every
#: :meth:`SchedulerService.health_snapshot` key, in documented order.
#: The snapshot evaluates all of them; the compiled SLO probe
#: (:meth:`SchedulerService._build_slo_probe`) only the getters the
#: attached rules reference — flat single-call functions, since this
#: runs every epoch on the hot path.
_SLO_GETTERS: dict[str, Callable] = {
    "epoch": lambda svc, w: svc.epoch,
    "window": lambda svc, w: len(w.latency),
    "decision_p50_s": lambda svc, w: w.latency.percentile(0.50),
    "decision_p95_s": lambda svc, w: w.latency.percentile(0.95),
    "decision_p99_s": lambda svc, w: w.latency.percentile(0.99),
    "decision_max_s": lambda svc, w: w.latency.percentile(1.0),
    "cache_hit_ratio": lambda svc, w: w.cache_hit_ratio,
    "queue_depth": lambda svc, w: len(svc.queue),
    "n_streams": lambda svc, w: len(svc.planner.entries),
    "n_alive_servers": lambda svc, w: svc.planner.n_alive,
    "benefit": lambda svc, w: w.benefit_last,
    "benefit_baseline": lambda svc, w: w.baseline,
    "benefit_drop_ratio": _get_benefit_drop,
    "mode_brownout": lambda svc, w: 1 if svc.mode == "brownout" else 0,
    "breaker_state": lambda svc, w: (
        0 if svc.breaker is None else svc.breaker.rank
    ),
}


@dataclass(frozen=True)
class RemediationPolicy:
    """How ``alert.fired``/``alert.resolved`` edges steer the service.

    An alert whose severity reaches ``brownout_severity`` puts the
    service into brownout (and the matching ``alert.resolved`` edge
    lifts it, once no other reason holds); one reaching
    ``shed_severity`` additionally turns on join shedding; one
    reaching ``checkpoint_severity`` forces an immediate checkpoint to
    the run's checkpoint path (crash insurance while unhealthy).
    ``None`` disables that action.  Severities are the
    :data:`repro.obs.health.SEVERITIES` names.
    """

    brownout_severity: str | None = "unhealthy"
    shed_severity: str | None = None
    checkpoint_severity: str | None = None

    def __post_init__(self) -> None:
        from repro.obs.health import SEVERITIES

        for name in ("brownout_severity", "shed_severity", "checkpoint_severity"):
            value = getattr(self, name)
            if value is not None and value not in SEVERITIES[1:]:
                raise ValueError(
                    f"{name} must be one of {SEVERITIES[1:]} or None, "
                    f"got {value!r}"
                )


@dataclass
class ServeDecision:
    """One epoch's scheduling decision and its bookkeeping.

    ``signature()`` is the determinism fingerprint: everything that
    must replay bit-identically (configs, placement, outcome, benefit)
    and nothing that legitimately varies (wall-clock latency).
    ``latency_s`` is the serve loop's one decision timer: from the start
    of :meth:`SchedulerService.start`/:meth:`SchedulerService.
    process_epoch` until the decision's WAL append returns.
    """

    epoch: int
    time: float
    events: list[str]
    stream_ids: list[int]
    resolutions: np.ndarray
    fps: np.ndarray
    assignment: dict[int, tuple[int, ...]]
    outcome: np.ndarray | None
    benefit: float | None
    full_solve: bool
    cache_hits: int
    solved: int
    rejected: list[int]
    evicted: list[int]
    latency_s: float = 0.0
    shed: list[int] = field(default_factory=list)
    mode: str = "normal"
    #: ``assignment`` as the read-out's server column (one server per
    #: stream, :attr:`repro.serve.engine.Placement.server_col`), None when
    #: a stream is split or the decision predates the field.
    server_col: np.ndarray | None = field(default=None, repr=False, compare=False)

    def signature(self) -> tuple:
        """Bit-exact replay fingerprint (excludes wall-clock latency)."""
        return (
            self.epoch,
            tuple(self.events),
            tuple(self.stream_ids),
            tuple(float(v) for v in self.resolutions),
            tuple(float(v) for v in self.fps),
            tuple(sorted(self.assignment.items())),
            None if self.outcome is None else tuple(float(v) for v in self.outcome),
            None if self.benefit is None else float(self.benefit),
            self.full_solve,
            self.cache_hits,
            self.solved,
            tuple(self.rejected),
            tuple(self.evicted),
            tuple(self.shed),
            self.mode,
        )

    def sig_hash(self) -> str:
        """Short stable hash of the decision (the WAL fingerprint).

        Covers the same content as :meth:`signature`, but the float
        arrays go into the digest as raw little-endian IEEE-754 bytes
        instead of ``repr`` text — identical determinism (bit-equal
        floats hash bit-identically across processes), an order of
        magnitude cheaper on the journaled per-epoch hot path.  With
        ``server_col`` the assignment's ints are the bytes of one
        ``(sid, 1, server)`` row per stream, equal to packing them one by
        one.
        """
        h = hashlib.sha256()
        h.update(f"{self.mode}#{len(self.events)}|".encode("utf-8"))
        h.update("|".join(self.events).encode("utf-8"))
        # One length-prefixed int vector covers every discrete field —
        # length prefixes keep adjacent sequences from aliasing.
        ints = [self.epoch, int(self.full_solve), self.cache_hits, self.solved]
        for seq in (self.stream_ids, self.rejected, self.evicted, self.shed):
            ints.append(len(seq))
            ints.extend(seq)
        col = self.server_col
        if col is None:
            ints.extend(
                x
                for sid, servers in sorted(self.assignment.items())
                for x in (sid, len(servers), *servers)
            )
        h.update(struct.pack(f"<{len(ints)}q", *ints))
        if col is not None:
            rows = np.empty((col.size, 3), dtype="<i8")
            rows[:, 0] = self.stream_ids
            rows[:, 1] = 1
            rows[:, 2] = col
            h.update(rows.tobytes())
        h.update(np.asarray(self.resolutions, dtype="<f8").tobytes())
        h.update(np.asarray(self.fps, dtype="<f8").tobytes())
        if self.outcome is not None:
            h.update(np.asarray(self.outcome, dtype="<f8").tobytes())
        if self.benefit is not None:
            h.update(np.float64(self.benefit).tobytes())
        return h.hexdigest()[:16]


@dataclass
class DriftDetector:
    """Flags sustained relative deviation of observed vs expected outcomes.

    Tracks, per epoch, the max relative deviation across objectives;
    drift fires after ``patience`` consecutive epochs above
    ``rel_threshold``.
    """

    rel_threshold: float = 0.25
    patience: int = 2
    _strikes: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_positive("rel_threshold", self.rel_threshold)
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")

    def deviation(self, expected: np.ndarray, observed: np.ndarray) -> float:
        """Max relative per-objective deviation of observed vs expected."""
        expected = np.asarray(expected, dtype=float)
        observed = np.asarray(observed, dtype=float)
        denom = np.maximum(np.abs(expected), 1e-9)
        return float(np.max(np.abs(observed - expected) / denom))

    def update(self, expected: np.ndarray, observed: np.ndarray) -> bool:
        """Feed one epoch's observation; returns True when drift fires."""
        if self.deviation(expected, observed) > self.rel_threshold:
            self._strikes += 1
        else:
            self._strikes = 0
        if self._strikes >= self.patience:
            self._strikes = 0
            return True
        return False

    def reset(self) -> None:
        """Clear accumulated strikes (after a redeploy)."""
        self._strikes = 0


@dataclass
class ServeEpochTick:
    """The record :meth:`SchedulerService.run_epochs` returns per epoch.

    ``expected`` is the deployed decision's predicted outcome,
    ``observed`` what the environment measured, ``deviation`` the
    detector's max relative gap between them, and ``reoptimized``
    whether the epoch's drift verdict triggered a fresh solve.
    """

    epoch: int
    expected: np.ndarray
    observed: np.ndarray
    deviation: float
    reoptimized: bool


class RegistryFactory:
    """Picklable ``factory(problem, epoch) -> Scheduler`` over the registry.

    The serve checkpoint pickles the whole service, factory included,
    so CLI runs use this named class instead of a closure.
    """

    def __init__(self, method: str, preference, seed: int = 0, **kwargs) -> None:
        self.method = method
        self.preference = preference
        self.seed = seed
        self.kwargs = dict(kwargs)

    def __call__(self, problem: EVAProblem, epoch: int = 0):
        from repro.baselines import make_scheduler

        return make_scheduler(
            self.method,
            problem,
            preference=self.preference,
            rng=self.seed + epoch,
            **self.kwargs,
        )


class SchedulerService:
    """Event-driven online scheduler (see module docstring).

    Parameters
    ----------
    problem:
        Initial topology: its streams are the warm-up population, its
        servers/knobs/outcome functions the substrate for the whole run.
    preference:
        System benefit function scoring every epoch decision.
    scheduler_factory:
        Optional ``factory(problem, epoch) -> Scheduler`` for full
        solves (warm-up and drift).  The event loop builds one at
        warm-up and calls its :meth:`~repro.core.scheduler.Scheduler.
        replan` afterwards (warm starts); :meth:`run_epochs` builds a
        fresh one per solve.  ``None`` uses the engine's greedy
        admission as the full solve — the fast path for large fleets.
    epoch_s:
        Epoch clock granularity; same-epoch events batch into one
        decision.
    reoptimize_every:
        Force a full solve every N epochs (0 = never; incremental only).
    admission:
        :class:`~repro.serve.admission.AdmissionController` deciding
        joins.  The default controller admits exactly what the bare
        planner admits (no priorities, no shedding) — prior behavior.
    breaker:
        Optional :class:`~repro.resilience.breaker.CircuitBreaker`
        guarding full solves; open = brownout.
    remediation:
        Optional :class:`RemediationPolicy` mapping health-monitor
        alert edges to brownout/shed/checkpoint actions.
    """

    def __init__(
        self,
        problem: EVAProblem,
        *,
        preference: LinearL1Preference,
        scheduler_factory: Callable[..., object] | None = None,
        epoch_s: float = 1.0,
        reoptimize_every: int = 0,
        admission: AdmissionController | None = None,
        breaker=None,
        remediation: RemediationPolicy | None = None,
    ) -> None:
        if epoch_s <= 0:
            raise ValueError(f"epoch_s must be > 0, got {epoch_s}")
        if reoptimize_every < 0:
            raise ValueError(
                f"reoptimize_every must be >= 0, got {reoptimize_every}"
            )
        self.problem = problem
        self.preference = preference
        self.scheduler_factory = scheduler_factory
        self.epoch_s = float(epoch_s)
        self.reoptimize_every = int(reoptimize_every)
        self.admission = admission if admission is not None else AdmissionController()
        self.breaker = breaker
        self.remediation = remediation
        # Operating mode: "normal", or "brownout" (incremental-only
        # deltas, min-config admissions).  The reason sets track *why*
        # — brownout lifts only when every reason has cleared.
        self.mode = "normal"
        self._brownout_reasons: set[str] = set()
        self._shed_reasons: set[str] = set()
        # Write-ahead log: transient handle + the persisted high-water
        # sequence number (how recovery knows which WAL suffix to replay).
        self.wal = None
        self.wal_seq = 0
        # epoch -> (mode, full_solve) pins during WAL replay; empty on
        # live runs.
        self._forced_modes: dict[int, tuple[str, bool]] = {}
        self._stop = False
        self._ckpt_path = None
        self.scheduler = None
        self.planner = IncrementalPlanner.for_problem(problem, preference=preference)
        self.queue = EventQueue()
        self.decisions: list[ServeDecision] = []
        self.textures: dict[int, float] = {
            i: float(problem.textures[i]) for i in range(problem.n_streams)
        }
        self._next_sid = problem.n_streams
        self.epoch = 0
        self.started = False
        # The batch decision run_epochs deployed verbatim; None in the
        # event loop, where the engine state is what is deployed.
        self.last_decision: ScheduleDecision | None = None
        # Becomes True once churn events mutate the topology, after
        # which full solves rebuild the problem from live state instead
        # of reusing the constructor's problem object.
        self._topology_dirty = False
        # The tally every decision-derived count is read from.
        self.stats = ServeStats()
        # Live observability (attach_observability): a MetricsRegistry
        # reading metric_snapshot() at scrape time, and a HealthMonitor
        # driving /healthz + alert events.
        self.metrics = None
        self.monitor = None
        self.alerts: list[dict] = []
        self._slo_probe: Callable[[], dict] | None = None

    # -- topology ----------------------------------------------------------
    def epoch_of(self, t: float) -> int:
        """Epoch index for an event time (epoch 0 is the warm-up)."""
        return int(t / self.epoch_s + 1e-9) + 1

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> ServeDecision:
        """Warm-up full solve over the initial stream population."""
        t0 = time.perf_counter()
        if self.started:
            raise RuntimeError("service already started")
        self.started = True
        with telemetry.span("serve.decision"):
            stats = self._full_solve(reason="warmup", epoch=0)
            decision = self._emit_decision(
                epoch=0,
                t=0.0,
                events=[],
                full_solve=True,
                solved=len(self.planner.entries),
                cache_hits=0,
                rejected=stats.get("rejected", []),
                evicted=stats.get("evicted", []),
                t0=t0,
            )
        return decision

    def submit(self, events: Iterable[ServeEvent]) -> int:
        """Queue events for :meth:`run`; returns how many were queued.

        With a WAL attached every event is journaled (with its
        sequence number) *before* it enters the queue — write-ahead —
        so a crash after ``submit`` returns can always replay it.
        """
        n = 0
        wal = self.wal
        for e in events:
            if wal is not None:
                self.wal_seq += 1
                wal.append_event(self.wal_seq, e)
            self.queue.push(e)
            n += 1
        return n

    def attach_wal(self, wal) -> None:
        """Attach a :class:`~repro.serve.wal.WriteAheadLog`.

        Transient like the metrics registry (checkpoints drop the file
        handle but keep :attr:`wal_seq`); attach before :meth:`start`
        so the warm-up decision is journaled too.
        """
        self.wal = wal

    def request_stop(self) -> None:
        """Ask :meth:`run` to stop after the epoch in flight (graceful).

        Signal-handler safe: sets a flag the run loop checks between
        epochs — the current epoch drains, the final checkpoint and
        WAL sync still happen, and :meth:`run` returns normally.
        """
        self._stop = True

    def run(
        self,
        *,
        max_epochs: int | None = None,
        checkpoint_path=None,
        checkpoint_every: int = 0,
        pace_s: float = 0.0,
    ) -> list[ServeDecision]:
        """Drain the event queue epoch by epoch; returns new decisions.

        ``max_epochs`` bounds this call (the queue keeps the rest —
        how the mid-run checkpoint tests split a run).  With
        ``checkpoint_path`` the whole service pickles every
        ``checkpoint_every`` epochs (and at the end of the call).
        ``pace_s`` sleeps between epochs — replayed logs drain in
        milliseconds otherwise, too fast for a live scraper to watch.
        :meth:`request_stop` (the CLI's SIGTERM/SIGINT handler) ends
        the loop after the epoch in flight; the final checkpoint and
        WAL sync still run.
        """
        if not self.started:
            self.start()
        self._stop = False
        self._ckpt_path = checkpoint_path or None
        made: list[ServeDecision] = []
        try:
            while self.queue and (max_epochs is None or len(made) < max_epochs):
                first = self.queue.peek()
                epoch = self.epoch_of(first.time)
                batch = [self.queue.pop()]
                while self.queue and self.epoch_of(self.queue.peek().time) == epoch:
                    batch.append(self.queue.pop())
                made.append(self.process_epoch(epoch, batch))
                if (
                    checkpoint_path
                    and checkpoint_every > 0
                    and len(made) % checkpoint_every == 0
                ):
                    self.save_checkpoint(checkpoint_path)
                if self._stop:
                    telemetry.counter("serve.graceful_stops")
                    telemetry.event("serve.graceful_stop", epoch=int(self.epoch))
                    break
                if pace_s > 0 and self.queue:
                    time.sleep(pace_s)
            if checkpoint_path and made:
                self.save_checkpoint(checkpoint_path)
        finally:
            if self.wal is not None:
                self.wal.sync()
        return made

    # -- the per-epoch decision -------------------------------------------
    def process_epoch(self, epoch: int, batch: list[ServeEvent]) -> ServeDecision:
        """Apply one epoch's events and produce its decision.

        ``mode`` for the epoch (what admissions and the decision
        record see) is the operating mode at epoch start — or, during
        WAL replay, the mode the original run journaled for this
        epoch, which pins recovered decisions to the recorded ones
        even when a transition was triggered by wall-clock latency.
        """
        t0 = time.perf_counter()
        self.epoch = epoch
        forced = self._forced_modes.pop(epoch, None) if self._forced_modes else None
        mode = forced[0] if forced is not None else self.mode
        shed_mode = bool(self._shed_reasons)
        t = batch[-1].time if batch else epoch * self.epoch_s
        with telemetry.span("serve.decision"):
            touched: set[int] = set()
            solved = 0
            rejected: list[int] = []
            evicted: list[int] = []
            shed: list[int] = []
            want_full = False
            if any(ev.kind != "drift" for ev in batch):
                self._topology_dirty = True
            for ev in batch:
                if ev.kind == "stream_join":
                    sid = ev.target if ev.target >= 0 else self._next_sid
                    if sid in self.planner.entries:
                        sid = self._next_sid
                    self._next_sid = max(self._next_sid, sid + 1)
                    texture = float(ev.value) if ev.value is not None else 1.0
                    out = self.admission.request_join(
                        self.planner,
                        sid,
                        texture,
                        epoch=epoch,
                        queue_depth=len(self.queue),
                        min_config=mode == "brownout",
                        shed_mode=shed_mode,
                    )
                    if out.admitted:
                        self.textures[sid] = texture
                        touched.add(sid)
                        solved += 1
                        if out.evicted:
                            for vid in out.evicted:
                                self.textures.pop(vid, None)
                                touched.add(vid)
                            evicted.extend(out.evicted)
                            telemetry.counter(
                                "admit.evicted_for", len(out.evicted)
                            )
                    elif out.action == "shed":
                        shed.append(sid)
                        telemetry.counter("admit.shed")
                    else:
                        rejected.append(sid)
                        telemetry.counter("admit.rejected")
                    for vid in out.dropped:  # failed rollback (pathological)
                        self.textures.pop(vid, None)
                        touched.add(vid)
                        evicted.append(vid)
                elif ev.kind == "stream_leave":
                    if self.planner.remove_stream(ev.target):
                        self.textures.pop(ev.target, None)
                        touched.add(ev.target)
                elif ev.kind == "bandwidth_drift":
                    if 0 <= ev.target < self.planner.n_servers:
                        self.planner.set_bandwidth_factor(
                            ev.target, float(ev.value)
                        )
                elif ev.kind == "server_down":
                    stats = self.planner.server_down(
                        ev.target, priority_of=self.admission.priority_of
                    )
                    repaired = stats["migrated"] + stats["degraded"]
                    solved += stats["degraded"]
                    touched.update(stats["evicted"])
                    for sid in stats["evicted"]:
                        self.textures.pop(sid, None)
                    evicted.extend(stats["evicted"])
                    if repaired:
                        telemetry.counter("serve.repairs", repaired)
                elif ev.kind == "server_up":
                    self.planner.server_up(ev.target)
                elif ev.kind == "drift":
                    want_full = True
            if self.reoptimize_every and epoch % self.reoptimize_every == 0:
                want_full = True
            # The breaker sees every *wanted* full solve, replay or
            # not, so its state marches identically on deterministic
            # failures; only the run/skip choice is pinned by `forced`.
            probe = False
            if want_full and self.breaker is not None:
                allowed = self.breaker.allow(epoch)
                probe = allowed and self.breaker.state == "half_open"
                if not allowed and forced is None:
                    want_full = False
                    telemetry.counter("breaker.short_circuits")
            if forced is not None:
                want_full = forced[1]
            elif want_full and mode == "brownout" and not probe:
                # Brownout: incremental-only.  Breaker probes bypass
                # this (the breaker can only close by trying).
                want_full = False
                telemetry.counter("serve.suppressed_full_solves")
            full_stats: dict = {}
            if want_full:
                t_solve = time.perf_counter()
                failed = False
                try:
                    full_stats = self._full_solve(reason="drift", epoch=epoch)
                except InfeasibleScheduleError:
                    raise
                except Exception as exc:
                    if self.breaker is None:
                        raise
                    # Batch-scheduler failures raise before the engine
                    # re-embeds, so the live schedule is intact; count
                    # the failure and carry on incrementally.
                    failed = True
                    full_stats = {}
                    telemetry.counter("serve.full_solve_errors")
                    telemetry.event(
                        "serve.full_solve_error",
                        epoch=int(epoch),
                        error=repr(exc),
                    )
                if not failed:
                    solved = len(self.planner.entries)
                    touched.update(self.planner.entries)
                if self.breaker is not None:
                    label = self.breaker.record(
                        epoch=epoch,
                        duration_s=time.perf_counter() - t_solve,
                        failed=failed,
                    )
                    if label is not None:
                        self._on_breaker(label, epoch)
                if failed:
                    want_full = False  # the decision records an incremental epoch
            cache_hits = max(0, len(self.planner.entries) - len(
                touched & set(self.planner.entries)
            )) if not want_full else 0
            decision = self._emit_decision(
                epoch=epoch,
                t=t,
                events=[self._event_label(e) for e in batch],
                full_solve=want_full,
                solved=solved,
                cache_hits=cache_hits,
                rejected=rejected + full_stats.get("rejected", []),
                evicted=evicted + full_stats.get("evicted", []),
                shed=shed,
                mode=mode,
                t0=t0,
            )
        telemetry.counter("serve.events", len(batch))
        return decision

    # -- brownout / remediation --------------------------------------------
    def _on_breaker(self, label: str, epoch: int) -> None:
        if label == "open":
            self._enter_brownout("breaker", epoch=epoch)
        elif label == "close":
            self._exit_brownout("breaker", epoch=epoch)

    def _enter_brownout(self, reason: str, *, epoch: int) -> None:
        self._brownout_reasons.add(reason)
        if self.mode != "brownout":
            self.mode = "brownout"
            telemetry.counter("serve.brownout_enters")
            telemetry.event(
                "serve.brownout_enter", epoch=int(epoch), reason=reason
            )

    def _exit_brownout(self, reason: str, *, epoch: int) -> None:
        self._brownout_reasons.discard(reason)
        if not self._brownout_reasons and self.mode == "brownout":
            self.mode = "normal"
            telemetry.counter("serve.brownout_exits")
            telemetry.event(
                "serve.brownout_exit", epoch=int(epoch), reason=reason
            )

    def _remediate(self, edge: dict, *, epoch: int) -> None:
        """Close the loop on one health-alert edge (see RemediationPolicy)."""
        from repro.obs.health import severity_rank

        policy = self.remediation
        if policy is None:
            return
        rank = severity_rank(edge.get("severity", "degraded"))
        reason = f"alert:{edge.get('rule')}"
        if edge.get("event") == "alert.fired":
            if (
                policy.shed_severity is not None
                and rank >= severity_rank(policy.shed_severity)
            ):
                self._shed_reasons.add(reason)
                telemetry.counter("serve.shed_mode_enters")
            if (
                policy.brownout_severity is not None
                and rank >= severity_rank(policy.brownout_severity)
            ):
                self._enter_brownout(reason, epoch=epoch)
            if (
                policy.checkpoint_severity is not None
                and rank >= severity_rank(policy.checkpoint_severity)
                and self._ckpt_path
                and not self._forced_modes  # not mid-replay
            ):
                self.save_checkpoint(self._ckpt_path)
                telemetry.counter("serve.remediation_checkpoints")
        else:  # alert.resolved
            self._shed_reasons.discard(reason)
            self._exit_brownout(reason, epoch=epoch)

    @staticmethod
    def _event_label(e: ServeEvent) -> str:
        label = f"{e.kind}:{e.target}"
        if e.value is not None:
            label += f"x{e.value:g}"
        return label

    def _solve_engine(self) -> dict:
        """Greedy full solve; the engine state it leaves is deployed."""
        stats = self.planner.solve_all(dict(self.textures))
        for sid in stats.get("rejected", []):
            self.textures.pop(sid, None)
        return stats

    def _deploy_batch(
        self, *, reason: str, epoch: int, fresh: bool = False
    ) -> ScheduleDecision | None:
        """Solve the full problem; no engine re-embedding.

        The batch scheduler is built by the factory when ``fresh`` or
        none exists yet, and replanned otherwise; its decision is
        returned.  Without a factory the greedy engine solve is what is
        deployed, and ``None`` is returned.
        """
        if self.scheduler_factory is None:
            self._solve_engine()
            return None
        prob = self.problem
        if self._topology_dirty:
            from repro.resilience.chaos import degraded_problem

            prob = degraded_problem(
                self.problem,
                alive=self.planner.alive,
                bw_factor=self.planner.factor,
                textures=[self.textures[s] for s in sorted(self.textures)],
            )
        if prob is None:
            raise InfeasibleScheduleError(
                "no surviving stream/server to solve for"
            )
        if fresh or self.scheduler is None:
            self.scheduler = self.scheduler_factory(prob, epoch)
            out = self.scheduler.optimize()
        else:
            out = self.scheduler.replan(prob, reason=reason)
        return out.decision

    def _full_solve(self, *, reason: str, epoch: int) -> dict:
        """Re-solve and re-embed into the engine (event-loop full solve)."""
        if self.scheduler_factory is None:
            return self._solve_engine()
        decision = self._deploy_batch(reason=reason, epoch=epoch)
        sids = sorted(self.textures)
        configs = {
            sid: (float(decision.resolutions[i]), float(decision.fps[i]))
            for i, sid in enumerate(sids)
        }
        stats = self.planner.rebuild(configs, self.textures)
        for sid in stats.get("evicted", []):
            self.textures.pop(sid, None)
        return stats

    #: (read-out, preference, benefit) of the last decision, so a reused
    #: read-out (:meth:`IncrementalPlanner.placement`) is not scored
    #: again.  A class-level default, so a service pickled before it
    #: existed resumes.
    _scored: tuple | None = None

    def _emit_decision(
        self,
        *,
        epoch: int,
        t: float,
        events: list[str],
        full_solve: bool,
        solved: int,
        cache_hits: int,
        rejected: list[int],
        evicted: list[int],
        t0: float,
        shed: list[int] | None = None,
        mode: str = "normal",
    ) -> ServeDecision:
        """Record the epoch's decision; ``t0`` is when the epoch began.

        The decision latency is measured once, right after the WAL
        append returns; the ``serve.decision`` record is built once
        afterwards, pushed into :attr:`stats` and, with telemetry on,
        logged as is, and the SLO evaluation reads the same value.
        """
        placed = self.planner.placement()
        outcome = placed.outcome
        scored = self._scored
        if scored is not None and scored[0] is placed and scored[1] is self.preference:
            benefit = scored[2]  # the read-out reused: same outcome, same preference
        else:
            benefit = None if outcome is None else float(self.preference.value(outcome))
            self._scored = (placed, self.preference, benefit)
        decision = ServeDecision(
            epoch=epoch,
            time=t,
            events=events,
            stream_ids=placed.stream_ids,
            resolutions=placed.resolutions,
            fps=placed.fps,
            assignment=placed.servers,
            server_col=placed.server_col,
            outcome=outcome,
            benefit=benefit,
            full_solve=full_solve,
            cache_hits=cache_hits,
            solved=solved,
            rejected=rejected,
            evicted=evicted,
            shed=list(shed) if shed else [],
            mode=mode,
        )
        self.decisions.append(decision)
        if self.wal is not None:
            self.wal.append_epoch(
                epoch=epoch,
                mode=mode,
                full=bool(full_solve),
                sig=decision.sig_hash(),
            )
        latency_s = decision.latency_s = time.perf_counter() - t0
        record = {
            "epoch": int(epoch),
            "time": float(t),
            "events": events,
            "n_streams": len(placed.stream_ids),
            "n_alive_servers": int(self.planner.n_alive),
            "benefit": benefit,
            "outcome": None if outcome is None else outcome.tolist(),
            "full_solve": bool(full_solve),
            "cache_hits": int(cache_hits),
            "solved": int(solved),
            "rejected": [int(x) for x in rejected],
            "evicted": [int(x) for x in evicted],
            "shed": [int(x) for x in decision.shed],
            "mode": mode,
            "latency_s": latency_s,
        }
        self.stats.push(record)
        telemetry.counter("serve.replans")
        if full_solve:
            telemetry.counter("serve.full_solves")
        else:
            telemetry.counter("serve.cache_hits", cache_hits)
        telemetry.counter("serve.solved", solved)
        if telemetry.enabled:
            telemetry.event("serve.decision", **record)
        self._observe(decision)
        return decision

    # -- live observability ------------------------------------------------
    def attach_observability(self, *, metrics=None, monitor=None) -> None:
        """Attach a live metrics registry and/or a health monitor.

        ``metrics`` is a :class:`repro.obs.metrics.MetricsRegistry`; the
        service registers :meth:`metric_snapshot` as its source, so every
        ``repro_serve_*`` series is read from :attr:`stats` and the live
        state at scrape time and the per-epoch path never touches the
        registry.  A registry attached mid-run (or after :meth:`resume`)
        reads the whole run.  ``monitor`` is a
        :class:`repro.obs.health.HealthMonitor` evaluated against
        :meth:`health_snapshot` each epoch, its edge events appended to
        :attr:`alerts` and emitted as ``alert.fired``/``alert.resolved``
        telemetry.  Both are transient: checkpoints drop the registry
        (it feeds an HTTP thread), so re-attach after :meth:`resume`.
        """
        if self.metrics is not None:
            self.metrics.remove_source(self.metric_snapshot)
        self.metrics = metrics
        self.monitor = monitor
        self._slo_probe = (
            None if monitor is None else self._build_slo_probe(monitor)
        )
        if metrics is not None:
            metrics.add_source(self.metric_snapshot)

    def metric_snapshot(self) -> dict[str, dict]:
        """Every ``repro_serve_*`` series, read now (the registry source).

        Runs on the scraper's thread.  The counters and the latency
        histogram read :attr:`stats`, the gauges :meth:`health_snapshot`
        and the monitor.  The histogram copies its buckets before it
        reads the count, and :meth:`ServeStats.push` counts the epoch
        before its bucket, so no bucket exceeds ``+Inf`` mid-epoch.
        """
        stats = self.stats
        buckets = list(stats.latency_buckets)
        out = {
            name: {
                "type": "counter",
                "help": help_,
                "value": float(getattr(stats, key)),
            }
            for key, (name, help_) in _COUNTERS.items()
        }
        out["repro_serve_decision_latency_seconds"] = histogram_snapshot(
            "per-epoch decision latency", buckets, stats.epochs, stats.latency_sum
        )
        snap = self.health_snapshot()
        for key, (name, help_) in _GAUGES.items():
            value = snap[key]
            out[name] = {
                "type": "gauge",
                "help": help_,
                "value": 0.0 if value is None else float(value),
            }
        health = 0
        if self.monitor is not None:
            from repro.obs.health import severity_rank

            health = severity_rank(self.monitor.state)
        out["repro_serve_health"] = {
            "type": "gauge",
            "help": "health state (0=ok, 1=degraded, 2=unhealthy)",
            "value": float(health),
        }
        return out

    def _build_slo_probe(self, monitor) -> Callable[[], dict]:
        """Compile a minimal per-epoch snapshot for ``monitor``'s rules.

        :meth:`health_snapshot` builds all 15 documented keys; the
        attached rules typically read two.  This binds one getter per
        *referenced* key (unknown metrics stay absent, so such rules
        abstain — the same semantics as the full snapshot) and returns
        a zero-arg callable the per-epoch path evaluates instead.
        Closures don't pickle; checkpoints drop the probe and
        :meth:`__setstate__` recompiles it from the monitor's rules.
        """
        needed = {rule.metric for rule in monitor.rules}
        probes = [(k, g) for k, g in _SLO_GETTERS.items() if k in needed]

        def probe() -> dict:
            stats = self.stats
            return {k: g(self, stats) for k, g in probes}

        return probe

    def _observe(self, decision: ServeDecision) -> None:
        """Per-epoch SLO evaluation against the compiled minimal probe.

        Hot path — one call per epoch; the ``test_metrics_overhead``
        bench holds it under 2% of the serve loop.  Metrics cost nothing
        here: the registry reads :attr:`stats` at scrape time.
        """
        if self.monitor is None:
            return
        snap_fn = self._slo_probe or self.health_snapshot
        edges = self.monitor.evaluate(snap_fn(), epoch=decision.epoch)
        for edge in edges:
            self.alerts.append(dict(edge))
            if self.remediation is not None:
                self._remediate(edge, epoch=decision.epoch)
            kind = edge.pop("event")
            telemetry.counter(f"serve.{kind.replace('.', '_')}")
            telemetry.event(kind, epoch=decision.epoch, **edge)

    def health_snapshot(self) -> dict:
        """Windowed SLO inputs: the dict :class:`HealthMonitor` rules see.

        One entry per :data:`_SLO_GETTERS` key, in that order.
        Percentiles and the benefit baseline come from the rolling
        :data:`DECISION_WINDOW` — the same definition :meth:`summary`
        and ``repro serve report`` use — so an alert threshold means
        the same thing everywhere.
        """
        stats = self.stats
        return {k: g(self, stats) for k, g in _SLO_GETTERS.items()}

    def health_status(self) -> dict:
        """``/healthz`` document: monitor verdict plus the snapshot."""
        doc = (
            self.monitor.status()
            if self.monitor is not None
            else {"status": "ok", "alerts": [], "rules": []}
        )
        doc["snapshot"] = self.health_snapshot()
        return doc

    def varz(self) -> dict:
        """``/varz`` service section: summary + snapshot + alert history."""
        summary = self.summary()
        return {
            "summary": summary,
            "snapshot": self.health_snapshot(),
            "alerts_fired": summary["alerts_fired"],
            "recent_alerts": self.alerts[-10:],
        }

    # -- monitoring loop ---------------------------------------------------
    def run_epochs(
        self,
        n_epochs: int,
        *,
        environment: Callable[[ScheduleDecision, int], np.ndarray],
        detector: DriftDetector | None = None,
    ) -> list[ServeEpochTick]:
        """Fixed-epoch monitoring: observe, detect drift, full-solve.

        The environment maps the deployed decision to an observed
        outcome vector; the detector flags sustained deviation; a drift
        triggers a full solve by a fresh scheduler from the factory,
        built for the drifting epoch (the factory may pick that epoch's
        problem).  Epochs are numbered 0..n-1 per call.

        Deploys here go through :meth:`_deploy_batch`, not the
        incremental planner: the monitoring loop redeploys the batch
        decision verbatim, keeping every stream even when the engine's
        first-fit embedding would degrade some.
        """
        if n_epochs < 1:
            raise ValueError(f"n_epochs must be >= 1, got {n_epochs}")
        if detector is None:
            detector = DriftDetector()
        if not self.started:
            self.started = True
            self.last_decision = self._deploy_batch(
                reason="warmup", epoch=0, fresh=True
            )
        ticks: list[ServeEpochTick] = []
        for epoch in range(n_epochs):
            decision = self.deployed_decision()
            expected = decision.outcome
            observed = environment(decision, epoch)
            dev = detector.deviation(expected, observed)
            drifted = detector.update(expected, observed)
            if drifted:
                self.last_decision = self._deploy_batch(
                    reason="drift", epoch=epoch, fresh=True
                )
                detector.reset()
                telemetry.counter("serve.drift_reoptimizations")
            ticks.append(
                ServeEpochTick(
                    epoch=epoch,
                    expected=np.asarray(expected, dtype=float),
                    observed=np.asarray(observed, dtype=float),
                    deviation=dev,
                    reoptimized=drifted,
                )
            )
        return ticks

    def deployed_decision(self) -> ScheduleDecision:
        """The live decision as a :class:`ScheduleDecision`.

        The batch decision :meth:`run_epochs` deployed verbatim, when it
        deployed one; otherwise synthesized from the engine state, which
        is what the event loop deploys.
        """
        if self.last_decision is not None:
            return self.last_decision
        placed = self.planner.placement()
        if placed.outcome is None:
            raise RuntimeError("no streams admitted; nothing deployed")
        return ScheduleDecision(
            resolutions=placed.resolutions,
            fps=placed.fps,
            assignment=[placed.servers[sid][0] for sid in placed.stream_ids],
            outcome=placed.outcome,
            benefit=float(self.preference.value(placed.outcome)),
            method="Serve",
        )

    # -- checkpoint / resume ----------------------------------------------
    def save_checkpoint(self, path):
        """Atomically pickle the whole service (engine, queue, scheduler).

        Syncs the WAL first: a checkpoint's ``wal_seq`` high-water mark
        must never run ahead of the durable journal, or recovery would
        skip events the checkpoint claims to have absorbed.
        """
        from repro.resilience.checkpoint import save_checkpoint

        if self.wal is not None:
            self.wal.sync()
        return save_checkpoint(
            path,
            scheduler=self,
            bo_state=None,
            kind="serve",
            epoch=self.epoch,
            n_streams=len(self.planner.entries),
        )

    @classmethod
    def resume(cls, path) -> "SchedulerService":
        """Load a serve checkpoint written by :meth:`save_checkpoint`."""
        from repro.resilience.checkpoint import load_checkpoint

        ckpt = load_checkpoint(path)
        if ckpt.meta.get("kind") != "serve":
            raise ValueError(
                f"{path} is not a serve checkpoint "
                f"(kind={ckpt.meta.get('kind')!r})"
            )
        service = ckpt.scheduler
        if not isinstance(service, cls):
            raise ValueError(f"{path} does not hold a {cls.__name__}")
        return service

    # -- pickling ----------------------------------------------------------
    def __getstate__(self) -> dict:
        """Checkpoint state: drop the live metrics registry.

        The registry feeds an HTTP thread — it does not belong in a
        checkpoint.  The :class:`HealthMonitor` (pure
        state) and the alert history *do* pickle, so a resumed run
        keeps its firing alerts; re-attach a registry with
        :meth:`attach_observability` after :meth:`resume`.
        """
        state = self.__dict__.copy()
        state["metrics"] = None
        state["wal"] = None  # file handle; wal_seq (the high-water mark) stays
        state["_stop"] = False
        state["_slo_probe"] = None  # compiled closures don't pickle
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._slo_probe = (
            None if self.monitor is None else self._build_slo_probe(self.monitor)
        )

    # -- summary -----------------------------------------------------------
    def summary(self) -> dict:
        """Run statistics: the :attr:`stats` tally plus the live state.

        Counts are lifetime totals; the latency percentiles, the
        cache-hit ratio and the benefit baseline are the rolling-window
        definition (last :data:`DECISION_WINDOW` epochs) shared with
        :meth:`health_snapshot` and ``repro serve report`` — lifetime
        percentiles go stale on hours-long runs, reporting warm-up
        latencies forever.
        """
        return {
            **self.stats.to_dict(),
            "mode": self.mode,
            "breaker_state": (
                None if self.breaker is None else self.breaker.state
            ),
            "breaker_opens": 0 if self.breaker is None else self.breaker.opens,
            "n_streams": len(self.planner.entries),
            "n_alive_servers": self.planner.n_alive,
            "alerts_fired": sum(
                1 for a in self.alerts if a.get("event") == "alert.fired"
            ),
            "health": self.monitor.state if self.monitor is not None else "ok",
        }
