"""Tests for the closed-form EUBO criterion."""

import numpy as np
import pytest

from repro.bo import eubo_closed_form, select_eubo_pair
from repro.bo.eubo import eubo_for_pairs
from repro.gp import ComparisonData, PreferenceGP


class TestEuboClosedForm:
    def test_matches_monte_carlo(self, rng):
        mu = np.array([0.3, -0.2])
        cov = np.array([[1.0, 0.4], [0.4, 0.8]])
        exact = eubo_closed_form(mu, cov)
        samples = rng.multivariate_normal(mu, cov, size=200_000)
        mc = samples.max(axis=1).mean()
        assert exact == pytest.approx(mc, abs=5e-3)

    def test_degenerate_correlation(self):
        # perfectly correlated, equal variance -> max is just the larger mean
        mu = np.array([1.0, 0.0])
        cov = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert eubo_closed_form(mu, cov) == pytest.approx(1.0)

    def test_symmetric_zero_mean(self):
        # E[max(X, -X-ish)] for iid N(0,1): θ=√2, E[max]=θφ(0)=√2/√(2π)
        mu = np.zeros(2)
        cov = np.eye(2)
        expected = np.sqrt(2) * 1 / np.sqrt(2 * np.pi)
        assert eubo_closed_form(mu, cov) == pytest.approx(expected)

    def test_exceeds_individual_means(self):
        mu = np.array([0.5, 0.4])
        cov = np.array([[0.3, 0.0], [0.0, 0.3]])
        assert eubo_closed_form(mu, cov) > 0.5

    def test_bad_shapes_raise(self):
        with pytest.raises(ValueError):
            eubo_closed_form(np.zeros(3), np.eye(3))


def _fitted_model(seed=0, n=12):
    gen = np.random.default_rng(seed)
    items = gen.uniform(0, 1, (n, 2))
    util = items[:, 0]  # utility = first coordinate
    data = ComparisonData(items=items)
    for _ in range(25):
        i, j = gen.choice(n, 2, replace=False)
        if util[i] >= util[j]:
            data.add_comparison(i, j)
        else:
            data.add_comparison(j, i)
    return items, PreferenceGP().fit(data)


class TestEuboForPairs:
    def test_values_finite_and_shaped(self):
        items, model = _fitted_model()
        pairs = [(0, 1), (2, 3), (4, 5)]
        vals = eubo_for_pairs(model, items, pairs)
        assert vals.shape == (3,)
        assert np.all(np.isfinite(vals))

    def test_pair_with_high_utility_item_scores_higher(self):
        items, model = _fitted_model(seed=1)
        g, _ = model.predict(items)
        best = int(np.argmax(g))
        worst = int(np.argmin(g))
        others = [i for i in range(len(items)) if i not in (best, worst)]
        v_best = eubo_for_pairs(model, items, [(best, others[0])])[0]
        v_worst = eubo_for_pairs(model, items, [(worst, others[0])])[0]
        assert v_best > v_worst


class TestSelectEuboPair:
    def test_returns_valid_distinct_pair(self):
        items, model = _fitted_model()
        i, j = select_eubo_pair(model, items, rng=0)
        assert i != j
        assert 0 <= i < len(items) and 0 <= j < len(items)

    def test_exclusion_respected(self):
        items, model = _fitted_model(n=4)
        all_pairs = {(i, j) for i in range(4) for j in range(i + 1, 4)}
        excluded = all_pairs - {(0, 1)}
        i, j = select_eubo_pair(model, items, rng=0, exclude=excluded)
        assert (min(i, j), max(i, j)) == (0, 1)

    def test_all_excluded_raises(self):
        items, model = _fitted_model(n=3)
        all_pairs = {(i, j) for i in range(3) for j in range(i + 1, 3)}
        with pytest.raises(ValueError):
            select_eubo_pair(model, items, rng=0, exclude=all_pairs)

    def test_too_few_items_raises(self):
        items, model = _fitted_model()
        with pytest.raises(ValueError):
            select_eubo_pair(model, items[:1])
