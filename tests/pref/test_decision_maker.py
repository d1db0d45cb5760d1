"""Tests for the true preference (Eq. 13) and decision maker."""

import numpy as np
import pytest

from repro.pref import DecisionMaker, LinearL1Preference
from repro.utils import normalize_minmax


@pytest.fixture
def pref():
    k = 5
    return LinearL1Preference(
        weights=np.ones(k),
        utopia=np.array([0.0, 1.0, 0.0, 0.0, 0.0]),  # best ltc/net/com/eng=0, acc=1
        lo=np.zeros(k),
        hi=np.ones(k),
    )


class TestLinearL1Preference:
    def test_utopia_scores_zero(self, pref):
        assert pref.value(pref.utopia) == pytest.approx(0.0)

    def test_farther_is_worse(self, pref):
        near = np.array([0.1, 0.9, 0.1, 0.1, 0.1])
        far = np.array([0.9, 0.1, 0.9, 0.9, 0.9])
        assert pref.value(near) > pref.value(far)

    def test_weights_emphasize_objectives(self, pref):
        # Heavier latency weight punishes latency deviation more.
        heavy_ltc = LinearL1Preference(
            weights=np.array([5.0, 1.0, 1.0, 1.0, 1.0]),
            utopia=pref.utopia,
            lo=pref.lo,
            hi=pref.hi,
        )
        y_bad_ltc = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        y_bad_net = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        assert pref.value(y_bad_ltc) == pytest.approx(pref.value(y_bad_net))
        assert heavy_ltc.value(y_bad_ltc) < heavy_ltc.value(y_bad_net)

    def test_batched_evaluation(self, pref):
        ys = np.stack([pref.utopia, np.ones(5)])
        vals = pref.value(ys)
        assert vals.shape == (2,)
        assert vals[0] > vals[1]

    def test_normalization_applied(self):
        pref = LinearL1Preference(
            weights=np.ones(5),
            utopia=np.zeros(5),
            lo=np.zeros(5),
            hi=np.full(5, 100.0),
        )
        # raw deviation of 50 -> normalized 0.5 per objective
        assert pref.value(np.full(5, 50.0)) == pytest.approx(-2.5)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_value_is_bit_equal_to_the_per_call_normalization(self, degenerate):
        # value() derives the span, degenerate mask and normalized utopia
        # once; the floats must equal normalize_minmax's on every call.
        rng = np.random.default_rng(3)
        lo, hi = rng.uniform(0, 1, 5), rng.uniform(1, 3, 5)
        if degenerate:
            hi[2] = lo[2]
        pref = LinearL1Preference(
            weights=rng.uniform(0, 2, 5), utopia=rng.uniform(0, 3, 5), lo=lo, hi=hi
        )
        un = normalize_minmax(pref.utopia, lo, hi)
        for y in (rng.uniform(-1, 4, 5), rng.uniform(-1, 4, (7, 5))):
            want = -(np.abs(normalize_minmax(y, lo, hi) - un) * pref.weights).sum(axis=-1)
            assert np.array_equal(pref.value(y), want)
            assert np.array_equal(pref.normalize(y), normalize_minmax(y, lo, hi))

    def test_worst_value(self, pref):
        assert pref.worst_value == pytest.approx(-2.5)

    def test_negative_weights_raise(self, pref):
        with pytest.raises(ValueError):
            LinearL1Preference(
                weights=np.array([-1.0, 1, 1, 1, 1]),
                utopia=pref.utopia,
                lo=pref.lo,
                hi=pref.hi,
            )

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError):
            LinearL1Preference(
                weights=np.ones(3),
                utopia=np.zeros(5),
                lo=np.zeros(5),
                hi=np.ones(5),
            )


class TestDecisionMaker:
    def test_noiseless_always_correct(self, pref):
        dm = DecisionMaker(pref, noise_scale=0.0)
        better = np.array([0.1, 0.9, 0.1, 0.1, 0.1])
        worse = np.array([0.9, 0.1, 0.9, 0.9, 0.9])
        assert dm.compare(better, worse)
        assert not dm.compare(worse, better)

    def test_query_counter(self, pref):
        dm = DecisionMaker(pref)
        dm.compare(np.zeros(5), np.ones(5))
        dm.compare(np.zeros(5), np.ones(5))
        assert dm.n_queries == 2

    def test_noisy_sometimes_wrong_on_close_calls(self, pref):
        dm = DecisionMaker(pref, noise_scale=0.5, rng=0)
        a = np.array([0.50, 0.5, 0.5, 0.5, 0.5])
        b = np.array([0.51, 0.5, 0.5, 0.5, 0.5])
        answers = [dm.compare(a, b) for _ in range(200)]
        # a is (barely) better; noisy DM should still flip sometimes
        assert 20 < sum(answers) < 180

    def test_noisy_reliable_on_clear_calls(self, pref):
        dm = DecisionMaker(pref, noise_scale=0.05, rng=0)
        best = pref.utopia
        worst = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        answers = [dm.compare(best, worst) for _ in range(50)]
        assert sum(answers) >= 48

    def test_negative_noise_raises(self, pref):
        with pytest.raises(ValueError):
            DecisionMaker(pref, noise_scale=-0.1)
