"""Realistic pricing-rule preferences (§1's motivating examples).

The paper motivates preference learning with "intricate pricing rules
... such as tiered electricity or network traffic prices across
different areas or network operators [29], differentiated rental prices
for heterogeneous servers [2], and dynamic pricing based on the quality
of service (QoS) metrics [30]".  The §5 evaluation collapses all of
this into the weighted-L1 benefit; this module implements the actual
rule families, so experiments can test PaMO against *non-linear,
non-separable* true preferences where fixed weights fail hardest:

* :class:`TieredTariff` — piecewise-linear unit price with consumption
  tiers (electricity / traffic billing);
* :class:`QoSRevenue` — revenue per stream that pays full price only
  while latency ≤ SLO and accuracy ≥ floor, with graceful degradation;
* :class:`PricingPreference` — benefit = revenue − energy cost −
  network cost, a drop-in :class:`TruePreference`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.pref.decision_maker import TruePreference
from repro.utils import check_positive


@dataclass(frozen=True)
class TieredTariff:
    """Piecewise-linear tariff: unit price rises with consumption.

    ``thresholds`` are tier upper bounds (ascending, in consumption
    units); ``rates[i]`` applies between ``thresholds[i-1]`` and
    ``thresholds[i]``; the final rate applies beyond the last threshold,
    so ``len(rates) == len(thresholds) + 1``.

    >>> t = TieredTariff(thresholds=(100.0,), rates=(1.0, 2.0))
    >>> t.cost(150.0)   # 100 @ 1.0 + 50 @ 2.0
    200.0
    """

    thresholds: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rates) != len(self.thresholds) + 1:
            raise ValueError(
                f"need len(rates) == len(thresholds)+1, got "
                f"{len(self.rates)} rates / {len(self.thresholds)} thresholds"
            )
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be non-negative")
        if list(self.thresholds) != sorted(self.thresholds) or any(
            t <= 0 for t in self.thresholds
        ):
            raise ValueError("thresholds must be positive ascending")

    def cost(self, consumption) -> np.ndarray:
        """Total cost of ``consumption`` units (broadcasts)."""
        x = np.asarray(consumption, dtype=float)
        if np.any(x < 0):
            raise ValueError("consumption must be non-negative")
        total = np.zeros_like(x)
        prev = 0.0
        for t, r in zip(self.thresholds, self.rates):
            total = total + r * np.clip(x - prev, 0.0, t - prev)
            prev = t
        total = total + self.rates[-1] * np.clip(x - prev, 0.0, None)
        return total


@dataclass(frozen=True)
class QoSRevenue:
    """Per-deployment revenue under an SLO with graceful degradation.

    Revenue = ``base_revenue`` · accuracy-quality · latency-quality,
    where accuracy-quality ramps linearly from 0 at ``acc_floor`` to 1
    at ``acc_target``, and latency-quality is 1 within the SLO and
    decays exponentially beyond it (half-life = ``slo_seconds``).
    """

    base_revenue: float = 100.0
    slo_seconds: float = 0.2
    acc_floor: float = 0.3
    acc_target: float = 0.8

    def __post_init__(self) -> None:
        check_positive("base_revenue", self.base_revenue)
        check_positive("slo_seconds", self.slo_seconds)
        if not (0 <= self.acc_floor < self.acc_target <= 1):
            raise ValueError(
                f"need 0 <= acc_floor < acc_target <= 1, got "
                f"{self.acc_floor}, {self.acc_target}"
            )

    def revenue(self, latency, accuracy) -> np.ndarray:
        """Revenue earned at the given latency/accuracy (broadcasts)."""
        lat = np.asarray(latency, dtype=float)
        acc = np.asarray(accuracy, dtype=float)
        acc_q = np.clip(
            (acc - self.acc_floor) / (self.acc_target - self.acc_floor), 0.0, 1.0
        )
        over = np.clip(lat - self.slo_seconds, 0.0, None)
        lat_q = np.exp2(-over / self.slo_seconds)
        return self.base_revenue * acc_q * lat_q


@dataclass(frozen=True)
class PricingPreference(TruePreference):
    """System benefit in currency: QoS revenue minus metered costs.

    benefit(y) = revenue(ltc, acc) − energy_tariff(eng) −
    traffic_tariff(net) − compute_rent · com, over the canonical
    outcome vector [ltc, acc, net, com, eng].  Non-linear and
    non-separable in the objectives — the kind of rule the paper says
    defeats hand-tuned linear weights.
    """

    revenue: QoSRevenue = field(default_factory=QoSRevenue)
    energy_tariff: TieredTariff = field(
        default_factory=lambda: TieredTariff(thresholds=(50.0,), rates=(0.2, 0.6))
    )
    traffic_tariff: TieredTariff = field(
        default_factory=lambda: TieredTariff(thresholds=(20.0,), rates=(0.5, 1.5))
    )
    compute_rent: float = 0.1

    def __post_init__(self) -> None:
        check_positive("compute_rent", self.compute_rent, strict=False)

    def value(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        ltc = y[..., 0]
        acc = y[..., 1]
        net = np.clip(y[..., 2], 0.0, None)
        com = np.clip(y[..., 3], 0.0, None)
        eng = np.clip(y[..., 4], 0.0, None)
        rev = self.revenue.revenue(ltc, acc)
        cost = (
            self.energy_tariff.cost(eng)
            + self.traffic_tariff.cost(net)
            + self.compute_rent * com
        )
        return rev - cost
