"""Outcome-function substrate: §3's Eq. 2–5 made executable.

* :mod:`repro.outcomes.functions` — closed-form outcome functions over
  decision vectors (the θ(·)·ε(·) forms of the paper);
* :mod:`repro.outcomes.fitting` — separable θ(r)·ε(s) regression
  (the paper's parametric outcome form) and R²;
* :mod:`repro.outcomes.profiler` — grid profiling of the video/detector
  simulator (the source of Fig. 2's measured surfaces and of training
  data for the models);
* :mod:`repro.outcomes.surrogate` — the GP outcome-model bank f_1..f_5
  used inside PaMO's BO loop.
"""

from repro.outcomes.functions import OutcomeFunctions, default_accuracy_fn, OBJECTIVES
from repro.outcomes.fitting import SeparableProduct, r2_score
from repro.outcomes.profiler import OutcomeSample, profile_configuration, profile_grid
from repro.outcomes.surrogate import OutcomeSurrogateBank

__all__ = [
    "OutcomeFunctions",
    "default_accuracy_fn",
    "OBJECTIVES",
    "SeparableProduct",
    "r2_score",
    "OutcomeSample",
    "profile_configuration",
    "profile_grid",
    "OutcomeSurrogateBank",
]
