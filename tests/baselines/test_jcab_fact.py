"""Tests for the JCAB and FACT baseline schedulers."""

import numpy as np
import pytest

from repro.baselines import FACT, JCAB
from repro.core import EVAProblem, make_preference
from repro.sched import PeriodicStream, const1_satisfied


@pytest.fixture(scope="module")
def problem():
    return EVAProblem(n_streams=5, bandwidths_mbps=[10.0, 20.0, 30.0])


def _parent_streams(problem, decision):
    return [
        PeriodicStream(
            stream_id=i,
            fps=float(decision.fps[i]),
            resolution=float(decision.resolutions[i]),
            processing_time=problem.profile.processing_time(decision.resolutions[i]),
            bits_per_frame=problem.encoder.bits_per_frame(decision.resolutions[i]),
        )
        for i in range(decision.n_streams)
    ]


class TestJCAB:
    def test_produces_valid_decision(self, problem):
        out = JCAB(problem, rng=0).optimize()
        d = out.decision
        assert d.resolutions.shape == (5,)
        assert all(r in problem.config_space.resolutions for r in d.resolutions)
        assert all(0 <= q < problem.n_servers for q in d.assignment)
        assert np.all(np.isfinite(d.outcome))

    def test_respects_compute_capacity_mostly(self, problem):
        out = JCAB(problem, rng=0).optimize()
        streams = _parent_streams(problem, out.decision)
        # Lyapunov queues push toward Const1 (utilization <= 1)
        assert const1_satisfied(streams, out.decision.assignment)

    def test_energy_weight_reduces_consumption(self, problem):
        frugal = JCAB(problem, w_acc=0.2, w_eng=5.0, rng=0).optimize()
        greedy = JCAB(problem, w_acc=5.0, w_eng=0.2, rng=0).optimize()
        assert frugal.decision.outcome[4] <= greedy.decision.outcome[4]

    def test_accuracy_weight_raises_accuracy(self, problem):
        frugal = JCAB(problem, w_acc=0.2, w_eng=5.0, rng=0).optimize()
        greedy = JCAB(problem, w_acc=5.0, w_eng=0.2, rng=0).optimize()
        assert greedy.decision.outcome[1] >= frugal.decision.outcome[1]

    def test_history_length(self, problem):
        out = JCAB(problem, n_iterations=7, rng=0).optimize()
        assert len(out.history) == 7

    def test_invalid_v(self, problem):
        with pytest.raises(ValueError):
            JCAB(problem, v=0.0)


class TestFACT:
    def test_produces_valid_decision(self, problem):
        out = FACT(problem).optimize()
        d = out.decision
        assert all(r in problem.config_space.resolutions for r in d.resolutions)
        # FACT never adapts frame rate: all at the max knob
        assert np.all(d.fps == max(problem.config_space.fps_values))
        assert all(0 <= q < problem.n_servers for q in d.assignment)

    def test_latency_weight_prefers_small_frames(self, problem):
        lat_heavy = FACT(problem, w_ltc=10.0, w_acc=0.1).optimize()
        acc_heavy = FACT(problem, w_ltc=0.1, w_acc=10.0).optimize()
        assert lat_heavy.decision.outcome[0] <= acc_heavy.decision.outcome[0]
        assert acc_heavy.decision.outcome[1] >= lat_heavy.decision.outcome[1]

    def test_bcd_converges(self, problem):
        out = FACT(problem, n_iterations=10).optimize()
        assert out.converged
        assert out.n_iterations <= 10

    def test_objective_never_degrades(self, problem):
        out = FACT(problem).optimize()
        hist = out.history
        assert all(b >= a - 1e-9 for a, b in zip(hist, hist[1:]))


class TestBaselinesVsPreference:
    def test_single_objective_methods_ignore_other_objectives(self, problem):
        """The paper's core claim: JCAB/FACT miss objectives outside
        their formulations, so a preference emphasizing those
        objectives separates them from the utopia point."""
        pref_net = make_preference(problem, weights=[0.1, 0.1, 5.0, 0.1, 0.1])
        jcab = JCAB(problem, rng=0).optimize()
        fact = FACT(problem).optimize()
        # A tiny network-frugal config beats both under this preference.
        frugal = problem.evaluate([300.0] * 5, [1.0] * 5)
        assert pref_net.value(frugal) > pref_net.value(jcab.decision.outcome)
        assert pref_net.value(frugal) > pref_net.value(fact.decision.outcome)
