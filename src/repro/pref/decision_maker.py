"""True preference functions and the simulated decision maker.

The paper evaluates against the ground-truth system benefit of Eq. 13:

    U(y) = −‖ŷ − ŷ*‖₁ = −Σ_i w_i |ŷ_i − ŷ*_i|

over *normalized* outcome vectors ŷ, with ŷ* the (unattainable) utopia
vector of per-objective single-optimization bests.  Varying the weight
vector w constructs the different "system pricing preferences" of
Fig. 6.  The decision maker answers pairwise comparisons according to
this function, optionally with probit response noise — exactly the
oracle PaMO is allowed to query.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from repro.outcomes.functions import OBJECTIVES
from repro.utils import as_generator, check_array_1d, check_positive
from repro.utils.rng import RngLike


class TruePreference(abc.ABC):
    """A ground-truth benefit function over raw outcome vectors."""

    @abc.abstractmethod
    def value(self, y: np.ndarray) -> np.ndarray:
        """Benefit of outcome vectors ``y`` (..., 5); higher is better."""

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.value(y)


@dataclass(frozen=True)
class LinearL1Preference(TruePreference):
    """Eq. 13: negative weighted L1 distance to the utopia point.

    Parameters
    ----------
    weights:
        w_i per objective, canonical order [ltc, acc, net, com, eng].
    utopia:
        Raw-scale utopia outcome vector y* (per-objective bests).
    lo, hi:
        Raw-scale normalization bounds per objective (the observed
        outcome ranges); y and y* are min-max normalized with them.
    """

    weights: np.ndarray
    utopia: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        k = len(OBJECTIVES)
        object.__setattr__(self, "weights", check_array_1d("weights", self.weights, min_len=k))
        object.__setattr__(self, "utopia", check_array_1d("utopia", self.utopia, min_len=k))
        object.__setattr__(self, "lo", check_array_1d("lo", self.lo, min_len=k))
        object.__setattr__(self, "hi", check_array_1d("hi", self.hi, min_len=k))
        for name, arr in (("weights", self.weights), ("utopia", self.utopia)):
            if arr.size != k:
                raise ValueError(f"{name} must have {k} entries, got {arr.size}")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    @cached_property
    def _scale(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """(safe span, degenerate mask or None, normalized utopia).

        :func:`~repro.utils.mathx.normalize_minmax`'s per-call terms,
        derived once.  A cached property, not a field, so a preference
        pickled before it existed derives it on first use.
        """
        span = self.hi - self.lo
        degenerate = span <= 0
        safe_span = np.where(degenerate, 1.0, span)
        mask = degenerate if degenerate.any() else None
        return safe_span, mask, self._normalized(self.utopia, safe_span, mask)

    def _normalized(self, y, safe_span, mask) -> np.ndarray:
        """``normalize_minmax(y, lo, hi)`` over precomputed terms, same floats.

        ``np.where`` with an all-False mask returns its input unchanged,
        so it is left out when no objective is degenerate.
        """
        out = (np.asarray(y, dtype=float) - self.lo) / safe_span
        if mask is not None:
            out = np.where(mask, 0.5, out)
        return out.clip(0.0, 1.0, out=out)

    def normalize(self, y: np.ndarray) -> np.ndarray:
        """Min-max normalize raw outcomes to [0, 1] per objective."""
        safe_span, mask, _ = self._scale
        return self._normalized(y, safe_span, mask)

    def value(self, y: np.ndarray) -> np.ndarray:
        safe_span, mask, un = self._scale
        dist = self._normalized(y, safe_span, mask)
        dist -= un
        np.abs(dist, out=dist)
        dist *= self.weights
        return -dist.sum(axis=-1)

    @property
    def worst_value(self) -> float:
        """min(U) = −½ Σ w_i, the paper's footnote-2 normalization floor.

        (The footnote's min corresponds to an expected L1 distance of ½
        per objective under the normalized range.)
        """
        return -0.5 * float(np.sum(self.weights))


class DecisionMaker:
    """Answers pairwise comparisons according to a true preference.

    Parameters
    ----------
    preference:
        Ground-truth benefit function.
    noise_scale:
        λ of a probit response model: P(y1 reported ≻ y2) =
        Φ((U(y1) − U(y2)) / (√2 λ)).  ``0`` means perfectly reliable
        answers.
    """

    def __init__(
        self,
        preference: TruePreference,
        *,
        noise_scale: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        self.preference = preference
        self.noise_scale = check_positive("noise_scale", noise_scale, strict=False)
        self._rng = as_generator(rng)
        self.n_queries = 0

    def compare(self, y1: np.ndarray, y2: np.ndarray) -> bool:
        """True iff the decision maker reports y1 ≻ y2."""
        u1 = float(self.preference.value(np.asarray(y1)))
        u2 = float(self.preference.value(np.asarray(y2)))
        self.n_queries += 1
        if self.noise_scale == 0.0:
            return u1 >= u2
        p = ndtr((u1 - u2) / (np.sqrt(2.0) * self.noise_scale))
        return bool(self._rng.random() < p)
