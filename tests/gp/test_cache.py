"""Tests for the shared kernel/Cholesky cache and its GP integrations."""

import numpy as np
import pytest
from scipy.special import ndtr

from repro.gp import GPRegressor, Matern52Kernel, RBFKernel
from repro.gp import cache as gp_cache
from repro.gp.cache import cache_key, chol_cache
from repro.gp.preference import ComparisonData, PreferenceGP
from repro.obs import telemetry
from repro.utils.lru import LRUCache


@pytest.fixture(autouse=True)
def _fresh_cache():
    gp_cache.clear()
    yield
    gp_cache.clear()


def _lru(maxsize=64):
    return LRUCache(maxsize=maxsize, counters="gp.chol_cache")


class TestCholeskyCache:
    def test_miss_then_hit(self):
        cache = _lru(maxsize=4)
        calls = []
        out1 = cache.get_or_compute("k", lambda: calls.append(1) or 42)
        out2 = cache.get_or_compute("k", lambda: calls.append(1) or 43)
        assert out1 == out2 == 42
        assert len(calls) == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "size": 1, "hit_rate": 0.5}

    def test_lru_eviction_order(self):
        cache = _lru(maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: -1)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b (least recent)
        assert cache.get_or_compute("a", lambda: -1) == 1
        assert cache.get_or_compute("b", lambda: 99) == 99  # recomputed

    def test_shared_cache_emits_its_counter_prefix(self, rng):
        names = ("gp.chol_cache_hits", "gp.chol_cache_misses")
        x = rng.uniform(0, 1, (8, 2))
        telemetry.enable()
        try:
            before = telemetry.snapshot()["counters"]
            gp = GPRegressor(Matern52Kernel(np.full(2, 0.3)), noise=1e-3)
            gp.fit(x, np.sin(x[:, 0]), optimize=False)
            gp.fit(x, np.cos(x[:, 0]), optimize=False)
            after = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert [after[k] - before.get(k, 0) for k in names] == [1, 1]

    def test_clear_resets_counts(self):
        cache = _lru()
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "size": 0, "hit_rate": 0.0}

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            _lru(maxsize=0)


class TestCacheKey:
    def setup_method(self):
        self.x = np.arange(6.0).reshape(3, 2)

    def test_same_inputs_same_key(self):
        k1 = Matern52Kernel(np.array([0.3, 0.3]))
        k2 = Matern52Kernel(np.array([0.3, 0.3]))
        assert cache_key(k1, 1e-3, self.x) == cache_key(k2, 1e-3, self.x)

    def test_hyperparams_change_key(self):
        k1 = Matern52Kernel(np.array([0.3, 0.3]))
        k2 = Matern52Kernel(np.array([0.4, 0.3]))
        assert cache_key(k1, 1e-3, self.x) != cache_key(k2, 1e-3, self.x)

    def test_kernel_family_changes_key(self):
        k1 = Matern52Kernel(np.array([0.3, 0.3]))
        k2 = RBFKernel(np.array([0.3, 0.3]))
        assert cache_key(k1, 1e-3, self.x) != cache_key(k2, 1e-3, self.x)

    def test_noise_and_data_change_key(self):
        k = Matern52Kernel(np.array([0.3, 0.3]))
        base = cache_key(k, 1e-3, self.x)
        assert cache_key(k, 1e-2, self.x) != base
        assert cache_key(k, 1e-3, self.x + 1.0) != base

    def test_tag_partitions_entries(self):
        k = Matern52Kernel(np.array([0.3, 0.3]))
        assert cache_key(k, 1e-3, self.x, tag="reg") != cache_key(
            k, 1e-3, self.x, tag="pref"
        )


class TestRegressorCacheIntegration:
    def test_refit_same_data_hits_cache(self, rng):
        x = rng.uniform(0, 1, (20, 2))
        y = np.sin(x[:, 0]) + x[:, 1]
        gp = GPRegressor(Matern52Kernel(np.full(2, 0.3)), noise=1e-3)
        gp.fit(x, y, optimize=False)
        misses = chol_cache.misses
        gp.fit(x, y + 1.0, optimize=False)  # same K: y does not enter the key
        assert chol_cache.hits >= 1
        assert chol_cache.misses == misses
        # posterior is still correct for the NEW y
        mean, _ = gp.predict(x)
        np.testing.assert_allclose(mean, y + 1.0, atol=0.2)

    def test_cached_and_uncached_fits_identical(self, rng):
        x = rng.uniform(0, 1, (15, 2))
        y = np.cos(2 * x[:, 0]) * x[:, 1]
        probe = rng.uniform(0, 1, (6, 2))

        gp1 = GPRegressor(Matern52Kernel(np.full(2, 0.3)), noise=1e-3)
        gp1.fit(x, y, optimize=False)
        gp1.fit(x, y, optimize=False)  # second fit reads the cache
        m1, v1 = gp1.predict(probe)

        gp_cache.clear()  # the reference fit factorizes from scratch
        gp2 = GPRegressor(Matern52Kernel(np.full(2, 0.3)), noise=1e-3)
        gp2.fit(x, y, optimize=False)
        m2, v2 = gp2.predict(probe)

        np.testing.assert_array_equal(m1, m2)
        np.testing.assert_array_equal(v1, v2)


class TestPreferenceCacheIntegration:
    def _data(self, rng, n_items=12, n_pairs=20):
        items = rng.uniform(0, 1, (n_items, 3))
        utility = items @ np.array([1.0, -0.5, 0.2])
        data = ComparisonData(items=items)
        for _ in range(n_pairs):
            i, j = rng.choice(n_items, 2, replace=False)
            w, l = (i, j) if utility[i] >= utility[j] else (j, i)
            data.add_comparison(int(w), int(l))
        return data

    def test_refit_after_new_comparison_hits_cache(self, rng):
        data = self._data(rng)
        model = PreferenceGP()
        model.fit(data)
        assert chol_cache.misses >= 1
        hits_before = chol_cache.hits
        data.add_comparison(0, 1)
        model.fit(data)  # same item set -> same K -> cache hit
        assert chol_cache.hits > hits_before

    def test_pair_probability_fast_matches_slow(self, rng):
        # the batched path against a pair-at-a-time predict loop
        data = self._data(rng)
        model = PreferenceGP().fit(data)
        y1 = rng.uniform(0, 1, (8, 3))
        y2 = rng.uniform(0, 1, (8, 3))
        probs = model.predict_pair_probability(y1, y2)
        loop = np.empty(8)
        for i in range(8):
            mean, cov = model.predict(np.vstack([y1[i], y2[i]]), return_cov=True)
            var_d = max(cov[0, 0] + cov[1, 1] - 2 * cov[0, 1], 0.0)
            loop[i] = ndtr((mean[0] - mean[1]) / np.sqrt(2 * model.noise_scale**2 + var_d))
        np.testing.assert_allclose(probs, loop, rtol=0, atol=1e-10)
        assert np.all((probs >= 0) & (probs <= 1))
