"""Tests for the online monitoring / re-optimization loop."""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.core import DriftDetector, EVAProblem, OnlineScheduler, make_preference


@pytest.fixture
def problem():
    return EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0])


def _make_scheduler_factory(problem):
    pref = make_preference(problem)

    def factory(prob, epoch):
        return RandomSearch(prob, benefit_fn=pref.value, n_iterations=10, rng=epoch)

    return factory


class TestDriftDetector:
    def test_no_drift_on_match(self):
        d = DriftDetector(rel_threshold=0.2, patience=2)
        y = np.ones(5)
        assert not d.update(y, y * 1.05)
        assert not d.update(y, y * 0.95)

    def test_drift_after_patience(self):
        d = DriftDetector(rel_threshold=0.2, patience=2)
        y = np.ones(5)
        assert not d.update(y, y * 2.0)  # strike 1
        assert d.update(y, y * 2.0)  # strike 2 -> fire

    def test_strikes_reset_on_good_epoch(self):
        d = DriftDetector(rel_threshold=0.2, patience=2)
        y = np.ones(5)
        d.update(y, y * 2.0)
        d.update(y, y)  # resets
        assert not d.update(y, y * 2.0)

    def test_fire_resets_counter(self):
        d = DriftDetector(rel_threshold=0.2, patience=1)
        y = np.ones(5)
        assert d.update(y, y * 2.0)
        assert not d.update(y, y)

    def test_deviation_metric(self):
        d = DriftDetector()
        assert d.deviation(np.array([1.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DriftDetector(rel_threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(patience=0)


class TestOnlineScheduler:
    def test_stable_environment_never_reoptimizes(self, problem):
        sched = OnlineScheduler(
            problem,
            _make_scheduler_factory(problem),
            environment=lambda d, e: d.outcome,  # exactly as expected
        )
        log = sched.run(5)
        assert len(log) == 5
        assert sched.n_reoptimizations == 0
        assert all(not r.reoptimized for r in log)

    def test_drift_triggers_reoptimization(self, problem):
        def environment(decision, epoch):
            # from epoch 2 on, latency triples (e.g., link degradation)
            y = decision.outcome.copy()
            if epoch >= 2:
                y[0] *= 3.0
            return y

        sched = OnlineScheduler(
            problem,
            _make_scheduler_factory(problem),
            environment=environment,
            detector=DriftDetector(rel_threshold=0.5, patience=2),
        )
        log = sched.run(6)
        assert sched.n_reoptimizations >= 1
        assert any(r.reoptimized for r in log)

    def test_history_records_deviations(self, problem):
        sched = OnlineScheduler(
            problem,
            _make_scheduler_factory(problem),
            environment=lambda d, e: d.outcome * 1.1,
        )
        log = sched.run(3)
        for r in log:
            assert r.deviation == pytest.approx(0.1, abs=1e-9)

    def test_default_environment_runs_simulator(self, problem):
        sched = OnlineScheduler(problem, _make_scheduler_factory(problem))
        log = sched.run(1)
        assert np.all(np.isfinite(log[0].observed))

    def test_invalid_epochs(self, problem):
        sched = OnlineScheduler(problem, _make_scheduler_factory(problem))
        with pytest.raises(ValueError):
            sched.run(0)

    def test_decision_available_after_run(self, problem):
        sched = OnlineScheduler(
            problem,
            _make_scheduler_factory(problem),
            environment=lambda d, e: d.outcome,
        )
        sched.run(1)
        assert sched.decision is not None
        assert sched.decision.resolutions.shape == (3,)
