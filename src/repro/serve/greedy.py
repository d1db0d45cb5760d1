"""Greedy batch scheduler backed by the incremental serve engine.

Exposes the engine's best-first admission (:meth:`IncrementalPlanner.
solve_all`) through the standard :class:`~repro.core.scheduler.
Scheduler` protocol, so it registers in :mod:`repro.baselines` as
``greedy`` and plugs into every batch surface (CLI ``optimize``, bench,
chaos).  It is the serve loop's default full solve made comparable: one
deterministic pass admitting streams in id order at the
benefit-maximizing config that fits zero-jitter, no iterations, no RNG.
At M=1000 it finishes in well under a second where the GP-driven
optimizers take minutes — the fleet-scale warm-up the churn experiment
relies on.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome, ScheduleDecision
from repro.core.scheduler import SchedulerMixin
from repro.pref.decision_maker import LinearL1Preference
from repro.serve.engine import IncrementalPlanner

__all__ = ["GreedyScheduler"]


class GreedyScheduler(SchedulerMixin):
    """One-shot best-first greedy admission over the serve engine.

    Parameters
    ----------
    problem:
        The scheduling problem to solve.
    preference:
        System benefit function; ranks candidate configs per stream.
    rng:
        Accepted for registry signature compatibility; unused (the
        greedy pass is fully deterministic).
    """

    method_name = "Greedy"

    def __init__(
        self,
        problem: EVAProblem,
        *,
        preference: LinearL1Preference,
        rng=None,
    ) -> None:
        self.problem = problem
        self.preference = preference

    def optimize(self) -> OptimizationOutcome:
        problem = self.problem
        planner = IncrementalPlanner.for_problem(
            problem, preference=self.preference
        )
        textures = {
            i: float(problem.textures[i]) for i in range(problem.n_streams)
        }
        stats = planner.solve_all(textures)
        placed = planner.placement()
        if placed.outcome is None:
            raise ValueError("no admitted streams; outcome undefined")
        # Decision arrays cover every input stream; rejected streams are
        # pinned at the minimum config with a sentinel assignment of -1.
        min_r = min(problem.config_space.resolutions)
        min_s = min(problem.config_space.fps_values)
        m = problem.n_streams
        resolutions = np.full(m, float(min_r))
        fps = np.full(m, float(min_s))
        assignment = [-1] * m
        resolutions[placed.stream_ids] = placed.resolutions
        fps[placed.stream_ids] = placed.fps
        for sid in placed.stream_ids:
            assignment[sid] = placed.servers[sid][0]
        decision = ScheduleDecision(
            resolutions=resolutions,
            fps=fps,
            assignment=assignment,
            outcome=placed.outcome,
            benefit=float(self.preference.value(placed.outcome)),
            method=self.method_name,
        )
        return OptimizationOutcome(
            decision=decision,
            true_benefit=decision.benefit,
            n_iterations=1,
            converged=True,
            history=[decision.benefit],
            extras={
                "admitted": stats["admitted"],
                "rejected": [int(s) for s in stats["rejected"]],
            },
        )
