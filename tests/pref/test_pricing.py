"""Tests for tiered-tariff / QoS-revenue pricing preferences."""

import numpy as np
import pytest

from repro.pref import PricingPreference, QoSRevenue, TieredTariff


class TestTieredTariff:
    def test_single_tier_linear(self):
        t = TieredTariff(thresholds=(), rates=(2.0,))
        assert t.cost(10.0) == pytest.approx(20.0)

    def test_two_tiers_doc_example(self):
        t = TieredTariff(thresholds=(100.0,), rates=(1.0, 2.0))
        assert t.cost(150.0) == pytest.approx(200.0)

    def test_three_tiers(self):
        t = TieredTariff(thresholds=(10.0, 20.0), rates=(1.0, 2.0, 4.0))
        # 10@1 + 10@2 + 5@4 = 50
        assert t.cost(25.0) == pytest.approx(50.0)

    def test_zero_consumption(self):
        t = TieredTariff(thresholds=(10.0,), rates=(1.0, 2.0))
        assert t.cost(0.0) == 0.0

    def test_broadcasts(self):
        t = TieredTariff(thresholds=(10.0,), rates=(1.0, 2.0))
        np.testing.assert_allclose(t.cost([5.0, 15.0]), [5.0, 20.0])

    def test_cost_is_convex_increasing(self):
        t = TieredTariff(thresholds=(10.0, 20.0), rates=(1.0, 2.0, 4.0))
        xs = np.linspace(0, 40, 41)
        c = t.cost(xs)
        d1 = np.diff(c)
        assert np.all(d1 >= 0)  # increasing
        assert np.all(np.diff(d1) >= -1e-9)  # marginal rate non-decreasing

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TieredTariff(thresholds=(10.0,), rates=(1.0,))
        with pytest.raises(ValueError):
            TieredTariff(thresholds=(10.0, 5.0), rates=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            TieredTariff(thresholds=(), rates=(-1.0,))

    def test_negative_consumption_raises(self):
        t = TieredTariff(thresholds=(), rates=(1.0,))
        with pytest.raises(ValueError):
            t.cost(-1.0)


class TestQoSRevenue:
    def test_full_quality_full_revenue(self):
        q = QoSRevenue(base_revenue=100.0, slo_seconds=0.2, acc_target=0.8)
        assert q.revenue(0.1, 0.9) == pytest.approx(100.0)

    def test_accuracy_floor_zero_revenue(self):
        q = QoSRevenue(acc_floor=0.3)
        assert q.revenue(0.1, 0.2) == 0.0

    def test_accuracy_ramps_linearly(self):
        q = QoSRevenue(base_revenue=100.0, acc_floor=0.0, acc_target=1.0)
        assert q.revenue(0.0, 0.5) == pytest.approx(50.0)

    def test_slo_violation_halves_at_one_slo_over(self):
        q = QoSRevenue(base_revenue=100.0, slo_seconds=0.2, acc_target=0.5, acc_floor=0.0)
        full = q.revenue(0.2, 0.9)
        late = q.revenue(0.4, 0.9)  # one SLO beyond
        assert late == pytest.approx(full / 2)

    def test_monotonicity(self):
        q = QoSRevenue()
        assert q.revenue(0.1, 0.9) >= q.revenue(0.5, 0.9)
        assert q.revenue(0.1, 0.9) >= q.revenue(0.1, 0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            QoSRevenue(acc_floor=0.9, acc_target=0.5)
        with pytest.raises(ValueError):
            QoSRevenue(base_revenue=0.0)


class TestPricingPreference:
    def test_good_outcome_profitable(self):
        pref = PricingPreference()
        y = np.array([0.1, 0.85, 5.0, 10.0, 20.0])
        assert pref.value(y) > 0

    def test_costly_outcome_unprofitable(self):
        pref = PricingPreference()
        y = np.array([1.5, 0.2, 100.0, 200.0, 300.0])
        assert pref.value(y) < 0

    def test_tier_crossing_nonlinearity(self):
        """Doubling energy use beyond the tier more than doubles cost —
        no linear weighting reproduces this."""
        pref = PricingPreference()
        base = np.array([0.1, 0.85, 5.0, 10.0, 40.0])
        doubled = base.copy()
        doubled[4] = 80.0
        cost_low = pref.value(base)
        cost_high = pref.value(doubled)
        drop1 = cost_low - cost_high
        tripled = base.copy()
        tripled[4] = 120.0
        drop2 = cost_high - pref.value(tripled)
        assert drop2 > drop1  # marginal cost rose across the tier

    def test_batched(self):
        pref = PricingPreference()
        ys = np.stack(
            [[0.1, 0.9, 5, 10, 20], [0.5, 0.5, 30, 50, 80]]
        ).astype(float)
        vals = pref.value(ys)
        assert vals.shape == (2,)
        assert vals[0] > vals[1]

    def test_learnable_by_preference_gp(self):
        """PaMO's preference learner handles the non-linear rule."""
        from repro.core import EVAProblem
        from repro.pref import DecisionMaker, PreferenceLearner
        from repro.pref.metrics import pairwise_accuracy, sample_test_pairs

        problem = EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])
        pref = PricingPreference()
        gen = np.random.default_rng(0)
        ys = np.stack(
            [problem.evaluate(*problem.sample_decision(gen)) for _ in range(35)]
        )
        dm = DecisionMaker(pref, rng=0)
        learner = PreferenceLearner(ys, decision_maker=dm, rng=0).initialize(3).run(15)
        pairs = sample_test_pairs(ys, 200, rng=1)
        acc = pairwise_accuracy(learner.utility, pref.value, pairs)
        assert acc > 0.75, f"pricing-rule pairwise accuracy {acc:.3f}"
