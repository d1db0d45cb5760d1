"""Tests for the pairwise preference GP (Laplace approximation)."""

import numpy as np
import pytest

from repro.gp import ComparisonData, PreferenceGP
from repro.gp.kernels import RBFKernel


def _make_data(n_items=12, n_pairs=40, d=2, seed=0, utility=None):
    """Items on [0,1]^d with comparisons from a known utility."""
    gen = np.random.default_rng(seed)
    items = gen.uniform(0, 1, (n_items, d))
    if utility is None:
        utility = lambda y: -np.sum((y - 0.5) ** 2, axis=-1)  # peak at center
    data = ComparisonData(items=items)
    for _ in range(n_pairs):
        i, j = gen.choice(n_items, 2, replace=False)
        ui = utility(items[i])
        uj = utility(items[j])
        if ui >= uj:
            data.add_comparison(i, j)
        else:
            data.add_comparison(j, i)
    return items, data, utility


class TestComparisonData:
    def test_pair_matrix(self):
        data = ComparisonData(items=np.zeros((3, 2)), pairs=[(0, 2)])
        a = data.pair_matrix()
        np.testing.assert_array_equal(a, [[1.0, 0.0, -1.0]])

    def test_self_pair_raises(self):
        with pytest.raises(ValueError):
            ComparisonData(items=np.zeros((3, 2)), pairs=[(1, 1)])

    def test_out_of_range_raises(self):
        data = ComparisonData(items=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            data.add_comparison(0, 5)

    def test_add_items_returns_indices(self):
        data = ComparisonData(items=np.zeros((2, 2)))
        idx = data.add_items(np.ones((3, 2)))
        np.testing.assert_array_equal(idx, [2, 3, 4])
        assert data.n_items == 5

    def test_add_items_dim_mismatch(self):
        data = ComparisonData(items=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            data.add_items(np.ones((1, 3)))


class TestPreferenceGPFit:
    def test_fit_orders_items_correctly(self):
        items, data, utility = _make_data(n_pairs=60)
        gp = PreferenceGP().fit(data)
        g, _ = gp.predict(data.items)  # the MAP utilities at the items
        true_u = utility(items)
        # Kendall-style check: most pairs ordered consistently
        n_ok = n_tot = 0
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                if abs(true_u[i] - true_u[j]) < 0.05:
                    continue
                n_tot += 1
                n_ok += (g[i] > g[j]) == (true_u[i] > true_u[j])
        assert n_ok / n_tot > 0.8

    def test_winner_of_every_comparison_scores_higher_on_average(self):
        _, data, _ = _make_data(n_pairs=50, seed=3)
        gp = PreferenceGP().fit(data)
        g, _ = gp.predict(data.items)
        margins = [g[w] - g[l] for w, l in data.pairs]
        assert np.mean(margins) > 0

    def test_no_pairs_raises(self):
        with pytest.raises(ValueError):
            PreferenceGP().fit(ComparisonData(items=np.zeros((3, 2))))

    def test_custom_kernel_used(self):
        items, data, _ = _make_data()
        kern = RBFKernel(np.full(2, 0.5), outputscale=1.0)
        gp = PreferenceGP(kernel=kern).fit(data)
        assert gp.kernel is kern

    def test_invalid_noise_scale(self):
        with pytest.raises(ValueError):
            PreferenceGP(noise_scale=0.0)


class TestPreferenceGPPredict:
    def test_predict_mean_var_shapes(self):
        items, data, _ = _make_data()
        gp = PreferenceGP().fit(data)
        y = np.random.default_rng(0).uniform(0, 1, (5, 2))
        mean, var = gp.predict(y)
        assert mean.shape == (5,) and var.shape == (5,)
        assert np.all(var > 0)

    def test_predict_cov_psd(self):
        items, data, _ = _make_data()
        gp = PreferenceGP().fit(data)
        y = np.random.default_rng(1).uniform(0, 1, (6, 2))
        _, cov = gp.predict(y, return_cov=True)
        assert np.linalg.eigvalsh(cov).min() > -1e-8

    def test_predict_generalizes_utility_ordering(self):
        items, data, utility = _make_data(n_items=15, n_pairs=80, seed=2)
        gp = PreferenceGP().fit(data)
        center = np.array([[0.5, 0.5]])
        corner = np.array([[0.0, 0.0]])
        m_center, _ = gp.predict(center)
        m_corner, _ = gp.predict(corner)
        assert m_center[0] > m_corner[0]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            PreferenceGP().predict(np.zeros((1, 2)))

    def test_pair_probability_bounds_and_direction(self):
        items, data, _ = _make_data(n_pairs=80, seed=5)
        gp = PreferenceGP().fit(data)
        center = np.array([[0.5, 0.5]])
        corner = np.array([[0.05, 0.05]])
        p = gp.predict_pair_probability(center, corner)
        assert 0.5 < p[0] <= 1.0
        p_rev = gp.predict_pair_probability(corner, center)
        assert p_rev[0] == pytest.approx(1 - p[0], abs=1e-6)

    def test_more_comparisons_reduce_uncertainty(self):
        items, small, utility = _make_data(n_pairs=5, seed=7)
        _, big, _ = _make_data(n_pairs=120, seed=7)
        gp_small = PreferenceGP().fit(small)
        gp_big = PreferenceGP().fit(big)
        probe = items[:8]
        _, v_small = gp_small.predict(probe)
        _, v_big = gp_big.predict(probe)
        assert np.mean(v_big) < np.mean(v_small)
