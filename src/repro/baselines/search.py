"""Search baselines and Pareto utilities.

* :class:`RandomSearch` — sample random knob decisions, keep the best
  under a given benefit function (the sanity floor every scheduler
  must beat);
* :func:`exhaustive_best` — the oracle optimum by full enumeration
  (tiny instances only; (C_r·C_f)^M blows up exactly as §1 warns);
* :func:`pareto_front` — non-dominated filtering with the §2.3
  dominance definition (all objectives oriented lower-is-better).
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome, ScheduleDecision
from repro.core.scheduler import SchedulerMixin
from repro.obs import telemetry
from repro.utils import as_generator, check_array_2d
from repro.utils.rng import RngLike


def pareto_front(outcomes) -> np.ndarray:
    """Indices of non-dominated rows (§2.3 dominance; minimize all).

    x₁ dominates x₂ iff f_i(x₁) ≤ f_i(x₂) ∀i with strict < somewhere.
    O(n²) pairwise check, vectorized row-against-all.
    """
    y = check_array_2d("outcomes", outcomes)
    n = y.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        if not keep[i]:
            continue
        leq = np.all(y <= y[i], axis=1)
        lt = np.any(y < y[i], axis=1)
        dominators = leq & lt
        dominators[i] = False
        if np.any(dominators):
            keep[i] = False
    return np.flatnonzero(keep)


def orient_minimize(outcomes: np.ndarray) -> np.ndarray:
    """Flip accuracy so every objective is lower-is-better.

    Canonical order [ltc, acc, net, com, eng] → acc becomes −acc.
    """
    y = check_array_2d("outcomes", outcomes).copy()
    y[:, 1] = -y[:, 1]
    return y


class RandomSearch(SchedulerMixin):
    """Best-of-N random knob decisions under a benefit function.

    Keyword-only after ``problem``; ``n_iterations`` is the sample
    budget.
    """

    method_name = "RandomSearch"

    def __init__(
        self,
        problem: EVAProblem,
        *,
        benefit_fn: Callable[[np.ndarray], float],
        n_iterations: int = 100,
        rng: RngLike = None,
    ) -> None:
        if n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
        self.problem = problem
        self.benefit_fn = benefit_fn
        self.n_iterations = int(n_iterations)
        self._rng = as_generator(rng)

    def optimize(self) -> OptimizationOutcome:
        """Sample-and-keep-best over ``n_iterations`` random decisions."""
        with telemetry.span("random_search.optimize"):
            return self._optimize()

    def _optimize(self) -> OptimizationOutcome:
        best = None
        history = []
        for _ in range(self.n_iterations):
            r, s = self.problem.sample_decision(self._rng)
            y = self.problem.evaluate(r, s)
            z = float(self.benefit_fn(y))
            if best is None or z > best[3]:
                best = (r, s, y, z)
            history.append(best[3])
        r, s, y, z = best
        assignment, _ = self.problem.schedule(r, s)
        return OptimizationOutcome(
            decision=ScheduleDecision(
                resolutions=r,
                fps=s,
                assignment=assignment,
                outcome=y,
                benefit=z,
                method=self.method_name,
            ),
            true_benefit=z,
            n_iterations=self.n_iterations,
            converged=True,
            history=history,
        )


def exhaustive_best(
    problem: EVAProblem,
    benefit_fn: Callable[[np.ndarray], float],
    *,
    max_decisions: int = 200_000,
) -> ScheduleDecision:
    """Oracle optimum by enumerating every knob decision.

    Raises ``ValueError`` when the space exceeds ``max_decisions`` —
    the (N·C_r·C_f)^M explosion the paper's §1 motivates BO with.
    """
    space = problem.config_space
    per_stream = space.all_configs()
    n_total = per_stream.shape[0] ** problem.n_streams
    if n_total > max_decisions:
        raise ValueError(
            f"decision space has {n_total} points (> {max_decisions}); "
            "use RandomSearch or PaMO instead"
        )
    best: tuple | None = None
    for combo in itertools.product(range(per_stream.shape[0]), repeat=problem.n_streams):
        r = per_stream[list(combo), 0]
        s = per_stream[list(combo), 1]
        y = problem.evaluate(r, s)
        z = float(benefit_fn(y))
        if best is None or z > best[3]:
            best = (r, s, y, z)
    assert best is not None
    r, s, y, z = best
    assignment, _ = problem.schedule(r, s)
    return ScheduleDecision(
        resolutions=r,
        fps=s,
        assignment=assignment,
        outcome=y,
        benefit=z,
        method="Exhaustive",
    )
