"""Bayesian-optimization substrate (replaces BoTorch's acquisition zoo).

Provides the closed-form EUBO pair-selection criterion (Eq. 11), the
Monte-Carlo batch acquisition functions of §5.1 — qNEI (the paper's
choice), qEI, qUCB, and qSR — and the outer BO driver of Algorithm 2.
"""

from repro.bo.eubo import eubo_batch, eubo_closed_form, eubo_for_pairs, select_eubo_pair
from repro.bo.acquisition import (
    AcquisitionFunction,
    QNEI,
    QEI,
    QUCB,
    QSR,
    ThompsonSampling,
    make_acquisition,
)
from repro.bo.loop import BOLoop, BOResult

__all__ = [
    "eubo_batch",
    "eubo_closed_form",
    "eubo_for_pairs",
    "select_eubo_pair",
    "AcquisitionFunction",
    "QNEI",
    "QEI",
    "QUCB",
    "QSR",
    "ThompsonSampling",
    "make_acquisition",
    "BOLoop",
    "BOResult",
]
