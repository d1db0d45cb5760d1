"""Integration tests for PaMO / PaMO+ (small but real runs)."""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.core import EVAProblem, PaMO, PaMOPlus, make_preference
from repro.pref import DecisionMaker


@pytest.fixture(scope="module")
def setup():
    problem = EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])
    pref = make_preference(problem)
    return problem, pref


def _small_pamo(problem, dm, cls=PaMO, **kw):
    defaults = dict(
        n_profile=40,
        n_outcome_space=20,
        n_init_comparisons=3,
        n_pref_queries=6,
        batch_size=2,
        n_iterations=5,
        n_pool=12,
        rng=0,
    )
    defaults.update(kw)
    return cls(problem, decision_maker=dm, **defaults)


class TestPaMO:
    def test_runs_end_to_end(self, setup):
        problem, pref = setup
        dm = DecisionMaker(pref, rng=0)
        out = _small_pamo(problem, dm).optimize()
        d = out.decision
        assert d.resolutions.shape == (4,)
        assert d.fps.shape == (4,)
        assert len(d.assignment) >= 4  # split streams may add entries
        assert np.all(np.isfinite(d.outcome))
        assert out.n_dm_queries >= 9  # init + eubo queries

    def test_beats_random_single_sample(self, setup):
        """PaMO's solution should beat the average random decision."""
        problem, pref = setup
        dm = DecisionMaker(pref, rng=1)
        out = _small_pamo(problem, dm, rng=1).optimize()
        z_pamo = pref.value(out.decision.outcome)
        z_random = np.mean(
            [
                pref.value(problem.evaluate(*problem.sample_decision(rng=i)))
                for i in range(20)
            ]
        )
        assert z_pamo > z_random

    def test_phases_reusable(self, setup):
        problem, pref = setup
        dm = DecisionMaker(pref, rng=2)
        pamo = _small_pamo(problem, dm, rng=2)
        bank = pamo.fit_outcome_models()
        assert bank.is_fitted
        learner = pamo.fit_preference_model()
        assert learner.is_fitted
        out = pamo.optimize()  # reuses the fitted models
        assert np.isfinite(out.decision.benefit)

    def test_acquisition_variants_run(self, setup):
        problem, pref = setup
        for name in ("qEI", "qUCB", "qSR"):
            dm = DecisionMaker(pref, rng=3)
            out = _small_pamo(
                problem, dm, acquisition=name, n_iterations=3, rng=3
            ).optimize()
            assert np.isfinite(pref.value(out.decision.outcome))

    def test_history_tracked(self, setup):
        problem, pref = setup
        dm = DecisionMaker(pref, rng=4)
        out = _small_pamo(problem, dm, rng=4).optimize()
        assert len(out.history) == out.n_iterations


class TestPaMOPlus:
    def test_runs_without_dm_queries(self, setup):
        problem, pref = setup
        dm = DecisionMaker(pref, rng=0)
        out = _small_pamo(problem, dm, cls=PaMOPlus).optimize()
        assert out.n_dm_queries == 0  # true preference, no comparisons
        assert out.decision.method == "PaMO+"

    def test_plus_roughly_upper_bounds_pamo(self, setup):
        """Across seeds, PaMO+ (true preference) should on average do at
        least as well as PaMO (learned preference)."""
        problem, pref = setup
        z_plus, z_pamo = [], []
        for seed in range(3):
            dm1 = DecisionMaker(pref, rng=seed)
            z_plus.append(
                pref.value(
                    _small_pamo(problem, dm1, cls=PaMOPlus, rng=seed)
                    .optimize()
                    .decision.outcome
                )
            )
            dm2 = DecisionMaker(pref, rng=seed)
            z_pamo.append(
                pref.value(
                    _small_pamo(problem, dm2, rng=seed).optimize().decision.outcome
                )
            )
        assert np.mean(z_plus) >= np.mean(z_pamo) - 0.1

    def test_competitive_with_random_search(self, setup):
        problem, pref = setup
        dm = DecisionMaker(pref, rng=5)
        out = _small_pamo(problem, dm, cls=PaMOPlus, rng=5, n_iterations=8).optimize()
        rs = RandomSearch(problem, benefit_fn=pref.value, n_iterations=30, rng=5).optimize()
        # PaMO+ evaluates ~16-20 configs; random search 30. PaMO+ should
        # be at least close (within 15% of the normalized gap).
        assert pref.value(out.decision.outcome) > rs.true_benefit - 0.35
