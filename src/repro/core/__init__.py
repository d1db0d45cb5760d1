"""PaMO core: the paper's primary contribution.

* :class:`~repro.core.problem.EVAProblem` — the multi-objective EVA
  scheduling problem of §3 (streams, servers, configuration knobs,
  constraints, outcome evaluation through the zero-jitter scheduler);
* :mod:`repro.core.benefit` — Eq. 13 system benefit, utopia vectors,
  and the footnote-2 normalized benefit;
* :class:`~repro.core.pamo.PaMO` — the full Algorithm-2 scheduler
  (outcome GPs + preference learning + qNEI BO), plus the PaMO+ variant
  that uses the true preference function.
"""

from repro.core.problem import EVAProblem, ConfigSpace
from repro.core.benefit import (
    compute_utopia,
    compute_bounds,
    normalized_benefit,
    benefit_ratio,
    make_preference,
)
from repro.core.result import ScheduleDecision, OptimizationOutcome
from repro.core.scheduler import Scheduler, SchedulerMixin
from repro.core.pamo import PaMO, PaMOPlus

__all__ = [
    "EVAProblem",
    "ConfigSpace",
    "compute_utopia",
    "compute_bounds",
    "normalized_benefit",
    "benefit_ratio",
    "make_preference",
    "ScheduleDecision",
    "OptimizationOutcome",
    "Scheduler",
    "SchedulerMixin",
    "PaMO",
    "PaMOPlus",
]
