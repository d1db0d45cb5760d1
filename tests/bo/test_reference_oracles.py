"""The vectorized BO paths against test-side reference oracles.

Each hot kernel ships one implementation.  The straightforward form it
replaced lives here as an oracle — per-candidate greedy scoring, the
scalar EUBO closed form per pair, and a from-scratch refit per outcome
model — and these tests require the shipped path to agree with it on
shared inputs and seeds (identical indices or a tight tolerance).
"""

import copy

import numpy as np
import pytest

from repro.bo import eubo_closed_form, eubo_for_pairs
from repro.bo.acquisition import QEI, QNEI, QSR, QUCB
from repro.gp import cache as gp_cache
from repro.gp.preference import ComparisonData, PreferenceGP
from repro.outcomes.functions import OBJECTIVES
from repro.outcomes.surrogate import OutcomeSurrogateBank
from repro.utils import as_generator


def _sampler(x, s, rng):
    mean = np.sin(3.0 * x[:, 0]) + 0.5 * x[:, 1]
    return mean[None, :] + 0.25 * rng.standard_normal((s, x.shape[0]))


def _greedy_oracle(acq, sampler, pool, batch_size, *, observed_x=None,
                   observed_z=None, rng=None):
    """Candidate-at-a-time greedy batch over the acquisition's own hooks.

    Returns ``(indices, last_batch_value)``.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=float))
    p = pool.shape[0]
    have_obs = (
        acq._joint_with_observed and observed_x is not None and len(observed_x) > 0
    )
    joint = np.vstack([pool, observed_x]) if have_obs else pool
    z = sampler(joint, acq.n_samples, as_generator(rng))
    z_pool = acq._transform_samples(z[:, :p])
    baseline = acq._baseline_values(
        z[:, p:] if have_obs else None, observed_z, acq.n_samples
    )
    clip = acq._clip_at_baseline and bool(np.any(np.isfinite(baseline)))
    safe_base = np.where(np.isfinite(baseline), baseline, -np.inf)

    chosen: list[int] = []
    current = np.full(acq.n_samples, -np.inf)
    value = None
    for _ in range(batch_size):
        scores = np.full(p, -np.inf)
        for c in range(p):
            if c in chosen:
                continue
            cand_max = np.maximum(current, z_pool[:, c])
            if clip:
                vals = np.clip(cand_max - safe_base, 0.0, None)
                vals = np.where(np.isfinite(vals), vals, cand_max)
                scores[c] = vals.mean()
            else:
                scores[c] = cand_max.mean()
        best = int(np.argmax(scores))
        chosen.append(best)
        current = np.maximum(current, z_pool[:, best])
        value = float(scores[best])
    return np.array(chosen, dtype=int), value


class TestAcquisitionOracle:
    @pytest.mark.parametrize("acq_cls", [QNEI, QEI, QUCB, QSR])
    def test_select_batch_identical(self, acq_cls, rng):
        pool = rng.uniform(0, 1, (40, 2))
        observed_x = rng.uniform(0, 1, (8, 2))
        observed_z = rng.uniform(0, 1, 8)
        acq = acq_cls(n_samples=64)
        kw = dict(observed_x=observed_x, observed_z=observed_z, rng=123)
        idx = acq.select_batch(_sampler, pool, 5, **kw)
        ref_idx, ref_value = _greedy_oracle(acq, _sampler, pool, 5, **kw)
        np.testing.assert_array_equal(idx, ref_idx)
        assert acq.last_batch_value == pytest.approx(ref_value, rel=0, abs=1e-12)

    def test_select_batch_identical_without_incumbent(self, rng):
        pool = rng.uniform(0, 1, (30, 2))
        acq = QNEI(n_samples=32)
        ref_idx, _ = _greedy_oracle(acq, _sampler, pool, 3, rng=7)
        np.testing.assert_array_equal(acq.select_batch(_sampler, pool, 3, rng=7), ref_idx)


class TestEuboOracle:
    def _model_and_items(self, rng, n_items=15):
        items = rng.uniform(0, 1, (n_items, 3))
        utility = items @ np.array([1.0, -0.3, 0.5])
        data = ComparisonData(items=items)
        for _ in range(2 * n_items):
            i, j = rng.choice(n_items, 2, replace=False)
            w, l = (i, j) if utility[i] >= utility[j] else (j, i)
            data.add_comparison(int(w), int(l))
        return PreferenceGP().fit(data), items

    @staticmethod
    def _closed_form_per_pair(model, items, pairs):
        mean, cov = model.predict(items, return_cov=True)
        return np.array([
            eubo_closed_form(
                np.array([mean[i], mean[j]]),
                np.array([[cov[i, i], cov[i, j]], [cov[j, i], cov[j, j]]]),
            )
            for i, j in pairs
        ])

    def test_pairs_match_closed_form_per_pair(self, rng):
        model, items = self._model_and_items(rng)
        pairs = [(i, j) for i in range(len(items)) for j in range(i + 1, len(items))]
        np.testing.assert_allclose(
            eubo_for_pairs(model, items, pairs),
            self._closed_form_per_pair(model, items, pairs),
            rtol=0,
            atol=1e-10,
        )

    def test_batch_matches_scalar_closed_form(self, rng):
        model, items = self._model_and_items(rng)
        pairs = [(0, 1), (2, 7), (3, 3), (7, 2)]
        np.testing.assert_allclose(
            eubo_for_pairs(model, items, pairs),
            self._closed_form_per_pair(model, items, pairs),
            rtol=0,
            atol=1e-10,
        )

    def test_empty_pairs(self, rng):
        model, items = self._model_and_items(rng)
        assert eubo_for_pairs(model, items, []).shape == (0,)


class TestBankUpdateOracle:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        gp_cache.clear()
        yield
        gp_cache.clear()

    def _fitted_bank(self, rng, n=30):
        x = np.stack(
            [rng.uniform(200, 2000, n), rng.uniform(1, 30, n)], axis=1
        )
        y = rng.uniform(0.1, 1.0, (n, 5))
        return OutcomeSurrogateBank().fit(x, y, optimize=True, rng=rng), x, y

    @staticmethod
    def _refit_oracle(bank, x_new, y_new):
        """Refit every model from scratch on the concatenated data."""
        ref = copy.deepcopy(bank)
        x_all = np.vstack([ref._x, x_new])
        y_all = np.vstack([ref._y, y_new])
        xn = ref._normalize(x_all)
        for j, name in enumerate(OBJECTIVES):
            ref.models[name].fit(xn, y_all[:, j], optimize=False)
        return ref

    def test_update_matches_refit_oracle(self, rng):
        bank, x, y = self._fitted_bank(rng)
        x_new = np.stack(
            [rng.uniform(200, 2000, 6), rng.uniform(1, 30, 6)], axis=1
        )
        y_new = rng.uniform(0.1, 1.0, (6, 5))
        ref_bank = copy.deepcopy(bank)
        bank.update(x_new, y_new)
        # update seeds the factor for the concatenated data; drop it so
        # the oracle factorizes from scratch
        gp_cache.clear()
        ref = self._refit_oracle(ref_bank, x_new, y_new)
        probe = np.stack(
            [rng.uniform(200, 2000, 10), rng.uniform(1, 30, 10)], axis=1
        )
        m, v = bank.predict_per_stream(probe)
        m_ref, v_ref = ref.predict_per_stream(probe)
        np.testing.assert_allclose(m, m_ref, rtol=0, atol=1e-8)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-8)

    def test_update_preserves_hyperparameters(self, rng):
        bank, x, y = self._fitted_bank(rng)
        params_before = {
            name: gp.kernel.get_log_params().copy()
            for name, gp in bank.models.items()
        }
        x_new = np.stack([rng.uniform(200, 2000, 4), rng.uniform(1, 30, 4)], axis=1)
        bank.update(x_new, rng.uniform(0.1, 1.0, (4, 5)))
        for name, gp in bank.models.items():
            np.testing.assert_array_equal(
                gp.kernel.get_log_params(), params_before[name]
            )
            assert gp.n_train == x.shape[0] + 4
