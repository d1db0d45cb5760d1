"""Tests for the preference learner and its accuracy metric (Fig. 9)."""

import numpy as np
import pytest

from repro.pref import DecisionMaker, LinearL1Preference, PreferenceLearner
from repro.pref.metrics import pairwise_accuracy, sample_test_pairs


def _setup(seed=0, n_outcomes=30, noise=0.0):
    gen = np.random.default_rng(seed)
    space = gen.uniform(0, 1, (n_outcomes, 5))
    pref = LinearL1Preference(
        weights=np.array([1.0, 2.0, 0.5, 1.0, 1.5]),
        utopia=np.array([0.0, 1.0, 0.0, 0.0, 0.0]),
        lo=np.zeros(5),
        hi=np.ones(5),
    )
    dm = DecisionMaker(pref, noise_scale=noise, rng=seed)
    learner = PreferenceLearner(space, decision_maker=dm, rng=seed)
    return space, pref, dm, learner


class TestPreferenceLearner:
    def test_initialize_fits_model(self):
        _, _, _, learner = _setup()
        learner.initialize(n_pairs=3)
        assert learner.is_fitted
        assert learner.n_comparisons == 3

    def test_query_step_adds_comparison(self):
        _, _, dm, learner = _setup()
        learner.initialize(3)
        learner.query_step()
        assert learner.n_comparisons == 4
        assert dm.n_queries == 4

    def test_query_before_init_raises(self):
        _, _, _, learner = _setup()
        with pytest.raises(RuntimeError):
            learner.query_step()

    def test_run_n_queries(self):
        _, _, _, learner = _setup()
        learner.initialize(3).run(5)
        assert learner.n_comparisons == 8

    def test_utility_shape(self):
        space, _, _, learner = _setup()
        learner.initialize(5)
        u = learner.utility(space[:4])
        assert u.shape == (4,)

    def test_utility_before_fit_raises(self):
        _, _, _, learner = _setup()
        with pytest.raises(RuntimeError):
            learner.utility(np.zeros((1, 5)))

    def test_learned_ordering_matches_truth(self):
        space, pref, _, learner = _setup(seed=1)
        learner.initialize(4).run(14)
        pairs = sample_test_pairs(space, 200, rng=9)
        acc = pairwise_accuracy(learner.utility, pref.value, pairs)
        assert acc > 0.8

    def test_accuracy_improves_with_queries(self):
        accs = []
        for n_q in (0, 15):
            space, pref, _, learner = _setup(seed=2)
            learner.initialize(3).run(n_q)
            pairs = sample_test_pairs(space, 150, rng=5)
            accs.append(pairwise_accuracy(learner.utility, pref.value, pairs))
        assert accs[1] >= accs[0]

    def test_small_space_raises(self):
        _, pref, dm, _ = _setup()
        with pytest.raises(ValueError):
            PreferenceLearner(np.zeros((1, 5)), decision_maker=dm)

    def test_uncertainty_decreases_with_data(self):
        space, _, _, learner = _setup(seed=3)
        learner.initialize(3)
        _, v0 = learner.utility_with_uncertainty(space[:10])
        learner.run(12)
        _, v1 = learner.utility_with_uncertainty(space[:10])
        assert np.mean(v1) < np.mean(v0)


class TestPairwiseAccuracy:
    def test_perfect_predictor(self):
        truth = lambda y: y[:, 0]
        pairs = [(np.array([1.0, 0]), np.array([0.0, 0]))]
        assert pairwise_accuracy(truth, truth, pairs) == 1.0

    def test_inverted_predictor(self):
        truth = lambda y: y[:, 0]
        inv = lambda y: -y[:, 0]
        pairs = [(np.array([1.0, 0]), np.array([0.0, 0]))]
        assert pairwise_accuracy(inv, truth, pairs) == 0.0

    def test_ties_count_half(self):
        truth = lambda y: y[:, 0]
        const = lambda y: np.zeros(len(y))
        pairs = [(np.array([1.0, 0]), np.array([0.0, 0]))]
        assert pairwise_accuracy(const, truth, pairs) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pairwise_accuracy(lambda y: y, lambda y: y, [])


class TestSampleTestPairs:
    def test_count_and_distinct(self):
        space = np.arange(20).reshape(10, 2).astype(float)
        pairs = sample_test_pairs(space, 50, rng=0)
        assert len(pairs) == 50
        for a, b in pairs:
            assert not np.array_equal(a, b)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_test_pairs(np.zeros((1, 2)), 5)
        with pytest.raises(ValueError):
            sample_test_pairs(np.zeros((5, 2)), 0)
