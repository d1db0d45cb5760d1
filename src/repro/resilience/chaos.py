"""Chaos harness: run a scheduler through a fault plan, measure the damage.

Faults replay *across* scheduling decisions, at topology level.  A
:class:`ChaosRunner` first optimizes on the pristine topology (the
baseline), then walks the fault plan — an
:class:`~repro.serve.events.EventLog` of serve topology events — in
time order: each batch of same-time events yields a new *epoch* — a
degraded :class:`~repro.core.problem.EVAProblem` with downed servers
removed, drifted uplinks scaled, and departed streams dropped — on
which the scheduler replans, warm-started via ``scheduler.replan``.
The resulting :class:`ChaosReport` compares every epoch's benefit
against the fault-free baseline, which is what ``repro chaos`` prints.

Benefits are comparable across epochs only under a *fixed* utility; by
default the report scores every decision with the supplied
``preference`` (the simulated decision maker's hidden rule) rather than
each epoch's possibly-refit learned model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome
from repro.obs import telemetry
from repro.serve.events import EventLog, ServeEvent
from repro.utils.serialization import to_jsonable


def degraded_problem(
    problem: EVAProblem,
    *,
    alive: Sequence[bool],
    bw_factor: Sequence[float],
    textures: Sequence[float],
) -> EVAProblem | None:
    """``problem``'s knobs, profile, encoder and outcome model over the
    surviving servers and the live streams' ``textures``.

    ``alive``/``bw_factor`` are per server of ``problem`` (a dead server
    disappears; a live one keeps ``nominal * factor`` Mbps).  Returns
    ``None`` when nothing survives on either side — there is no problem
    left to schedule.  The chaos runner and the serve loop's full solve
    both build their degraded problem here.
    """
    if len(alive) != problem.n_servers or len(bw_factor) != problem.n_servers:
        raise ValueError(
            f"alive/bw_factor must have {problem.n_servers} entries"
        )
    bw = [
        float(problem.bandwidths_mbps[j]) * float(bw_factor[j])
        for j in range(problem.n_servers)
        if alive[j]
    ]
    if not bw or len(textures) == 0:
        return None
    return EVAProblem(
        len(textures),
        bw,
        config_space=problem.config_space,
        textures=textures,
        profile=problem.profile,
        encoder=problem.encoder,
        outcomes=problem.outcomes,
    )


@dataclass
class EpochResult:
    """One post-fault scheduling epoch."""

    index: int
    time: float
    events: tuple[ServeEvent, ...]
    n_servers: int
    n_streams: int
    feasible: bool
    replanned: bool = False
    outcome: OptimizationOutcome | None = None
    benefit: float | None = None

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "time": self.time,
            "events": [e.to_dict() for e in self.events],
            "n_servers": self.n_servers,
            "n_streams": self.n_streams,
            "feasible": self.feasible,
            "replanned": self.replanned,
            "outcome": None if self.outcome is None else self.outcome.to_dict(),
            "benefit": self.benefit,
        }


@dataclass
class ChaosReport:
    """Baseline vs per-epoch benefit under a fault plan."""

    plan: EventLog
    baseline: OptimizationOutcome
    baseline_benefit: float
    epochs: list[EpochResult] = field(default_factory=list)
    alerts: list[dict] = field(default_factory=list)

    @property
    def alerts_fired(self) -> int:
        return sum(1 for a in self.alerts if a.get("event") == "alert.fired")

    @property
    def worst_benefit(self) -> float | None:
        """Lowest epoch benefit (None if no epoch produced a schedule)."""
        zs = [e.benefit for e in self.epochs if e.benefit is not None]
        return min(zs) if zs else None

    @property
    def worst_drop(self) -> float | None:
        """Largest benefit drop vs baseline, relative to |baseline|.

        0 means no degradation; 1 means the benefit fell by the full
        baseline magnitude.  ``None`` when no epoch was schedulable.
        """
        worst = self.worst_benefit
        if worst is None:
            return None
        scale = max(abs(self.baseline_benefit), 1e-12)
        return max(0.0, (self.baseline_benefit - worst) / scale)

    @property
    def all_feasible(self) -> bool:
        """True iff every epoch produced a feasible schedule."""
        return all(e.feasible for e in self.epochs)

    def to_dict(self) -> dict:
        return to_jsonable(
            {
                "plan": self.plan.to_dict(),
                "baseline": self.baseline.to_dict(),
                "baseline_benefit": self.baseline_benefit,
                "epochs": [e.to_dict() for e in self.epochs],
                "worst_benefit": self.worst_benefit,
                "worst_drop": self.worst_drop,
                "all_feasible": self.all_feasible,
                "alerts": self.alerts,
                "alerts_fired": self.alerts_fired,
            }
        )


class ChaosRunner:
    """Optimize, inject faults, replan, compare.

    Parameters
    ----------
    problem:
        The pristine (fault-free) problem instance.
    fault_plan:
        Topology events to replay; same-time events form one epoch.  A
        ``stream_join`` with a value rejoins the stream with that
        texture, as ``repro serve run --events`` does; without one it
        keeps the texture it had.  A ``drift`` event, or a target out of
        range, raises ``ValueError`` before the scheduler is built.
    scheduler_factory:
        ``scheduler_factory(problem) -> scheduler`` — builds the
        scheduler for the baseline; each epoch calls its ``replan``.
    preference:
        Fixed utility used to score every decision (an object with a
        ``value(outcomes) -> array`` method, e.g. the decision maker's
        :class:`~repro.pref.decision_maker.TruePreference`).  Defaults
        to each decision's own ``benefit`` field, which is *not*
        comparable across refit learned models — pass the preference
        whenever it is available.
    monitor:
        Optional :class:`repro.obs.health.HealthMonitor` evaluated
        after every fault epoch against ``{"benefit_drop_ratio",
        "feasible", "n_servers", "n_streams"}``, so an injected fault
        that tanks the benefit trips the same ``alert.fired`` /
        ``alert.resolved`` telemetry events the live serve loop emits
        — chaos runs assert on alerts, not log greps.  The fired/
        resolved edges also collect in :attr:`ChaosReport.alerts`.
    """

    def __init__(
        self,
        problem: EVAProblem,
        fault_plan: EventLog,
        scheduler_factory: Callable[[EVAProblem], object],
        *,
        preference=None,
        monitor=None,
    ) -> None:
        self.problem = problem
        self.fault_plan = fault_plan
        self.scheduler_factory = scheduler_factory
        self.preference = preference
        self.monitor = monitor

    def _score(self, outcome: OptimizationOutcome) -> float:
        if self.preference is None:
            return float(outcome.decision.benefit)
        y = np.atleast_2d(outcome.decision.outcome)
        return float(np.asarray(self.preference.value(y)).reshape(-1)[0])

    def run(self) -> ChaosReport:
        """Baseline run plus one replan per fault epoch."""
        with telemetry.span("chaos.run"):
            for event in self.fault_plan:
                self._check(event, self.problem.n_servers, self.problem.n_streams)
            scheduler = self.scheduler_factory(self.problem)
            with telemetry.span("chaos.baseline"):
                baseline = scheduler.optimize()
            report = ChaosReport(
                plan=self.fault_plan,
                baseline=baseline,
                baseline_benefit=self._score(baseline),
            )

            alive = [True] * self.problem.n_servers
            factor = [1.0] * self.problem.n_servers
            active = np.ones(self.problem.n_streams, dtype=bool)
            textures = np.array(self.problem.textures, dtype=float)

            # Group same-time events into one epoch.
            batches: list[tuple[float, list[ServeEvent]]] = []
            for event in self.fault_plan:
                if batches and batches[-1][0] == event.time:
                    batches[-1][1].append(event)
                else:
                    batches.append((event.time, [event]))

            for idx, (t, events) in enumerate(batches):
                for e in events:
                    self._apply(e, alive, factor, active, textures)
                prob = degraded_problem(
                    self.problem,
                    alive=alive,
                    bw_factor=factor,
                    textures=textures[active],
                )
                epoch = EpochResult(
                    index=idx,
                    time=t,
                    events=tuple(events),
                    n_servers=0 if prob is None else prob.n_servers,
                    n_streams=0 if prob is None else prob.n_streams,
                    feasible=False,
                    replanned=prob is not None,
                )
                if prob is not None:
                    reason = ",".join(f"{e.kind}:{e.target}" for e in events)
                    with telemetry.span("chaos.epoch"):
                        out = scheduler.replan(prob, reason=reason)
                    epoch.outcome = out
                    epoch.benefit = self._score(out)
                    epoch.feasible = prob.is_feasible(
                        out.decision.resolutions, out.decision.fps
                    )
                telemetry.counter("chaos.epochs")
                telemetry.event(
                    "chaos.epoch",
                    index=idx,
                    time=t,
                    events=[e.to_dict() for e in events],
                    n_servers=epoch.n_servers,
                    n_streams=epoch.n_streams,
                    feasible=epoch.feasible,
                    replanned=epoch.replanned,
                    benefit=epoch.benefit,
                    baseline_benefit=report.baseline_benefit,
                )
                report.epochs.append(epoch)
                self._check_health(report, epoch)
        return report

    def _check_health(self, report: ChaosReport, epoch: EpochResult) -> None:
        """Run the health monitor over one epoch; emit fired/resolved edges."""
        if self.monitor is None:
            return
        scale = max(abs(report.baseline_benefit), 1e-12)
        drop = (
            None
            if epoch.benefit is None
            else max(0.0, (report.baseline_benefit - epoch.benefit) / scale)
        )
        snapshot = {
            "benefit_drop_ratio": drop,
            "feasible": float(epoch.feasible),
            "n_servers": float(epoch.n_servers),
            "n_streams": float(epoch.n_streams),
        }
        for edge in self.monitor.evaluate(snapshot, epoch=epoch.index):
            report.alerts.append(dict(edge))
            kind = edge.pop("event")
            telemetry.counter(f"chaos.{kind.replace('.', '_')}")
            telemetry.event(kind, time=epoch.time, **edge)

    @staticmethod
    def _check(event: ServeEvent, n_servers: int, n_streams: int) -> None:
        """Refuse an event the plan cannot replay."""
        if event.kind == "drift":
            raise ValueError(
                "a fault plan holds topology events only; drift is not one"
            )
        servers = event.kind in ("server_down", "server_up", "bandwidth_drift")
        n = n_servers if servers else n_streams
        if not 0 <= event.target < n:
            noun = "servers" if servers else "streams"
            raise ValueError(f"fault target {event.target} out of range for {n} {noun}")

    @staticmethod
    def _apply(
        event: ServeEvent,
        alive: list[bool],
        factor: list[float],
        active: np.ndarray,
        textures: np.ndarray,
    ) -> None:
        t = event.target
        if event.kind == "bandwidth_drift":
            factor[t] = float(event.value)
        elif event.kind in ("server_down", "server_up"):
            alive[t] = event.kind == "server_up"
        else:
            active[t] = event.kind == "stream_join"
            if event.kind == "stream_join" and event.value is not None:
                textures[t] = float(event.value)
