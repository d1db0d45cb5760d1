"""Tests for the Monte-Carlo batch acquisition functions."""

import numpy as np
import pytest

from repro.bo import QEI, QNEI, QSR, QUCB, make_acquisition


def _gaussian_sampler(means, stds):
    """Benefit sampler for synthetic 1-D 'configurations'.

    x encodes an index into means/stds; the sampler returns independent
    normal draws — enough to validate acquisition arithmetic.
    """
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)

    def sampler(x, n_samples, rng):
        idx = np.asarray(x, dtype=float).reshape(len(x), -1)[:, 0].astype(int)
        z = rng.standard_normal((n_samples, len(idx)))
        return means[idx] + stds[idx] * z

    return sampler


MEANS = np.array([0.0, 1.0, 2.0, 0.5])
STDS = np.array([0.1, 0.1, 0.1, 2.0])
POOL = np.arange(4, dtype=float).reshape(-1, 1)


def _value(acq, sampler, pool, batch_size=1, **kw):
    """MC value of the batch ``select_batch`` picks from ``pool``.

    On a pool of exactly ``batch_size`` points the batch is the whole
    pool, so this is the acquisition value of that batch.
    """
    acq.select_batch(sampler, pool, batch_size, **kw)
    return acq.last_batch_value


class TestQNEI:
    def test_prefers_high_mean_candidate(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QNEI(n_samples=256)
        obs_x = np.array([[0.0]])
        v_low = _value(acq, s, POOL[:1], observed_x=obs_x, rng=0)
        v_high = _value(acq, s, POOL[2:3], observed_x=obs_x, rng=0)
        assert v_high > v_low

    def test_no_incumbent_falls_back_to_mean(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QNEI(n_samples=512)
        v = _value(acq, s, POOL[2:3], rng=0)
        assert v == pytest.approx(2.0, abs=0.1)

    def test_incumbent_resampled_each_draw(self):
        """qNEI of the incumbent itself is small but positive (noise)."""
        s = _gaussian_sampler(MEANS, STDS)
        acq = QNEI(n_samples=512)
        obs_x = POOL[2:3]
        v = _value(acq, s, POOL[2:3], observed_x=obs_x, rng=0)
        assert 0 < v < 0.3

    def test_batch_value_geq_single(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QNEI(n_samples=512)
        obs_x = POOL[:1]
        v1 = _value(acq, s, POOL[1:2], observed_x=obs_x, rng=7)
        v2 = _value(acq, s, POOL[1:3], 2, observed_x=obs_x, rng=7)
        assert v2 >= v1 - 0.05

    @pytest.mark.parametrize("seed", range(5))
    def test_picks_best_mean_over_incumbent(self, seed):
        s = _gaussian_sampler(MEANS, STDS)
        idx = QNEI(n_samples=256).select_batch(
            s, POOL, 1, observed_x=POOL[:1], rng=seed
        )
        assert idx.tolist() == [2]


class TestQEI:
    def test_improvement_over_best_observed(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QEI(n_samples=512)
        v = _value(acq, s, POOL[2:3], observed_z=np.array([1.0]), rng=0)
        assert v == pytest.approx(1.0, abs=0.1)

    def test_no_improvement_when_best_unbeatable(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QEI(n_samples=512)
        v = _value(acq, s, POOL[:1], observed_z=np.array([10.0]), rng=0)
        assert v == pytest.approx(0.0, abs=1e-6)

    def test_missing_observed_values(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QEI(n_samples=256)
        v = _value(acq, s, POOL[1:2], rng=0)
        assert v == pytest.approx(1.0, abs=0.15)


class TestQUCB:
    def test_uncertainty_bonus(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QUCB(n_samples=1024, beta=2.0)
        # index 3 has mean 0.5 but huge std; should beat index 1 (mean 1.0, tiny std)
        v_uncertain = _value(acq, s, POOL[3:4], rng=0)
        v_certain = _value(acq, s, POOL[1:2], rng=0)
        assert v_uncertain > v_certain

    @pytest.mark.parametrize("seed", range(5))
    def test_picks_uncertain_candidate(self, seed):
        s = _gaussian_sampler(MEANS, STDS)
        idx = QUCB(n_samples=1024, beta=2.0).select_batch(s, POOL, 1, rng=seed)
        assert idx.tolist() == [3]

    def test_beta_zero_invalid(self):
        with pytest.raises(ValueError):
            QUCB(beta=0.0)


class TestQSR:
    def test_equals_expected_max(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QSR(n_samples=2048)
        v = _value(acq, s, POOL[:2], 2, rng=0)
        # max of N(0,.1) and N(1,.1) ~ 1.0
        assert v == pytest.approx(1.0, abs=0.05)


class TestSelectBatch:
    def test_selects_best_single(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QSR(n_samples=256)
        idx = acq.select_batch(s, POOL, 1, rng=0)
        assert idx.tolist() == [2]

    def test_batch_is_diverse_under_qsr(self):
        s = _gaussian_sampler(MEANS, STDS)
        acq = QSR(n_samples=512)
        idx = acq.select_batch(s, POOL, 2, rng=0)
        assert len(set(idx.tolist())) == 2
        assert 2 in idx  # best mean always in batch

    def test_batch_size_too_large_raises(self):
        s = _gaussian_sampler(MEANS, STDS)
        with pytest.raises(ValueError):
            QSR().select_batch(s, POOL, 10, rng=0)

    def test_invalid_batch_size(self):
        s = _gaussian_sampler(MEANS, STDS)
        with pytest.raises(ValueError):
            QSR().select_batch(s, POOL, 0, rng=0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls", [("qNEI", QNEI), ("qei", QEI), ("QUCB", QUCB), ("qSr", QSR)]
    )
    def test_make_by_name(self, name, cls):
        assert isinstance(make_acquisition(name), cls)

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            make_acquisition("thompson")

    def test_min_samples(self):
        with pytest.raises(ValueError):
            QNEI(n_samples=1)
