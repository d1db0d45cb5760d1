"""Unit tests for PaMO's internal machinery (adapter, candidates)."""

import numpy as np
import pytest

from repro.core import EVAProblem, PaMO, make_preference
from repro.core.pamo import _BenefitSurrogate
from repro.pref import DecisionMaker


@pytest.fixture(scope="module")
def setup():
    problem = EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 30.0])
    pref = make_preference(problem)
    dm = DecisionMaker(pref, rng=0)
    pamo = PaMO(
        problem, decision_maker=dm, n_profile=30, n_outcome_space=15, n_pref_queries=5,
        batch_size=2, n_iterations=2, n_pool=10, rng=0,
    )
    pamo.fit_outcome_models()
    pamo.fit_preference_model()
    return problem, pref, pamo


class TestBenefitSurrogate:
    def test_requires_exactly_one_head(self, setup):
        problem, pref, pamo = setup
        with pytest.raises(ValueError):
            _BenefitSurrogate(problem, pamo.bank)
        with pytest.raises(ValueError):
            _BenefitSurrogate(
                problem, pamo.bank, learner=pamo.learner, true_preference=pref
            )

    def test_sample_benefit_shape(self, setup):
        problem, pref, pamo = setup
        adapter = _BenefitSurrogate(problem, pamo.bank, learner=pamo.learner)
        x = np.stack([problem.encode(*problem.sample_decision(rng=i)) for i in range(4)])
        z = adapter.sample_benefit(x, 7, np.random.default_rng(0))
        assert z.shape == (7, 4)
        assert np.all(np.isfinite(z))

    def test_tx_cache_reused(self, setup):
        problem, pref, pamo = setup
        adapter = _BenefitSurrogate(problem, pamo.bank, learner=pamo.learner)
        x = problem.encode(*problem.sample_decision(rng=3))
        v1 = adapter._tx_mean(x)
        assert len(adapter._tx_cache) == 1
        v2 = adapter._tx_mean(x)
        assert v1 == v2
        assert len(adapter._tx_cache) == 1

    def test_update_conditions_bank(self, setup):
        problem, pref, pamo = setup
        adapter = _BenefitSurrogate(problem, pamo.bank, learner=pamo.learner)
        n_before = adapter.bank._x.shape[0]
        obs = {
            "per_stream": (
                np.array([[960.0, 10.0]]),
                np.array([[0.05, 0.6, 3.0, 4.0, 8.0]]),
            )
        }
        adapter.update(None, obs)
        assert adapter.bank._x.shape[0] == n_before + 1


class TestCandidateGeneration:
    def test_pool_contains_only_feasible(self, setup):
        problem, pref, pamo = setup
        pool = pamo._candidates(np.random.default_rng(0))
        assert pool.shape[0] >= 4
        for x in pool:
            r, s = problem.decode(x)
            assert problem.is_feasible(r, s)

    def test_incumbent_mutations_present(self, setup):
        problem, pref, pamo = setup
        # plant an incumbent and check its neighborhood is explored
        r, s = np.full(3, 600.0), np.full(3, 5.0)
        x_inc = problem.encode(r, s)
        pamo._incumbent = (0.0, x_inc)
        pool = pamo._candidates(np.random.default_rng(1))
        # at least one candidate within 2 knob changes of the incumbent
        diffs = (pool.reshape(pool.shape[0], 3, 2) != x_inc.reshape(3, 2)).any(axis=2)
        assert (diffs.sum(axis=1) <= 2).any()

    def test_pool_deduplicated(self, setup):
        problem, pref, pamo = setup
        pool = pamo._candidates(np.random.default_rng(2))
        assert np.unique(pool, axis=0).shape[0] == pool.shape[0]


class TestIncumbentTracking:
    def test_track_incumbent_keeps_best(self, setup):
        problem, pref, pamo = setup
        xs = np.stack([problem.encode(*problem.sample_decision(rng=i)) for i in range(3)])
        pamo._incumbent = None
        pamo._track_incumbent(xs, np.array([0.1, 0.5, 0.3]))
        assert pamo._incumbent[0] == 0.5
        pamo._track_incumbent(xs, np.array([0.2, 0.1, 0.4]))
        assert pamo._incumbent[0] == 0.5  # unchanged; 0.4 < 0.5
        pamo._track_incumbent(xs, np.array([0.9, 0.1, 0.4]))
        assert pamo._incumbent[0] == 0.9
