"""Cross-module integration tests: the full pipeline end to end.

These exercise the seams the unit tests can't: detector → profiler →
surrogate bank → PaMO → Algorithm 1 → simulator, and the consistency
between the analytic outcome functions and the event-level testbed.
"""

import numpy as np
import pytest

from repro.core import EVAProblem, PaMO, make_preference
from repro.outcomes import OutcomeSurrogateBank, profile_grid
from repro.outcomes.profiler import samples_to_arrays
from repro.pref import DecisionMaker
from repro.sched import const2_satisfied
from repro.sim import simulate_schedule
from repro.video import SceneConfig, generate_clip


class TestAnalyticVsSimulated:
    """Eq. 2-5 closed forms must agree with the event-level testbed
    whenever the schedule is feasible (no queueing)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasible_decisions_agree(self, seed):
        problem = EVAProblem(n_streams=3, bandwidths_mbps=[20.0, 30.0])
        gen = np.random.default_rng(seed)
        # rejection-sample a feasible decision
        for _ in range(50):
            r, s = problem.sample_decision(gen)
            if problem.is_feasible(r, s):
                break
        else:
            pytest.skip("no feasible decision found")
        y_analytic = problem.evaluate(r, s)
        y_measured = problem.evaluate_measured(r, s, horizon=6.0)
        # latency: no queueing, so measured ≈ analytic
        assert y_measured[0] == pytest.approx(y_analytic[0], rel=0.1, abs=0.01)
        # bandwidth within the encoder's inter-frame-gain envelope
        assert y_measured[2] == pytest.approx(y_analytic[2], rel=0.3)
        # computation matches closely (frames × flops over horizon)
        assert y_measured[3] == pytest.approx(y_analytic[3], rel=0.2)

    def test_schedule_is_zero_jitter_in_simulator(self):
        problem = EVAProblem(n_streams=5, bandwidths_mbps=[20.0, 30.0, 10.0])
        r = np.array([600.0, 900.0, 600.0, 300.0, 900.0])
        s = np.array([5.0, 10.0, 5.0, 15.0, 2.0])
        assignment, streams = problem.schedule(r, s)
        assert const2_satisfied(streams, assignment)
        report = simulate_schedule(
            [st.resolution for st in streams],
            [st.fps for st in streams],
            assignment,
            problem.bandwidths_mbps,
            horizon=8.0,
            profile=problem.profile,
            encoder=problem.encoder,
        )
        # residual jitter only from uplink serialization; compute queue is clean
        assert report.max_jitter < 0.06


class TestProfilerToSurrogateToDecision:
    """Profiling data measured from the detector pipeline trains a bank
    accurate enough to rank configurations correctly."""

    def test_bank_ranks_configs_like_truth(self):
        clip = generate_clip(SceneConfig(n_objects=10), n_frames=40, rng=0)
        samples = profile_grid(
            clip,
            resolutions=(300, 900, 1500, 2000),
            fps_values=(2, 10, 20, 30),
            rng=0,
        )
        x, y = samples_to_arrays(samples)
        bank = OutcomeSurrogateBank().fit(x, y, rng=0)
        mean, _ = bank.predict_per_stream([[400.0, 5.0], [1900.0, 28.0]])
        # higher config -> predicted higher accuracy and higher resources
        assert mean[1, 1] > mean[0, 1]
        assert mean[1, 2] > mean[0, 2]
        assert mean[1, 4] > mean[0, 4]


class TestPaMODecisionQuality:
    def test_pamo_decision_is_feasible_and_zero_jitter(self):
        problem = EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])
        pref = make_preference(problem)
        dm = DecisionMaker(pref, rng=0)
        out = PaMO(
            problem, decision_maker=dm, n_profile=30, n_outcome_space=15, n_pref_queries=6,
            batch_size=2, n_iterations=4, n_pool=10, rng=0,
        ).optimize()
        d = out.decision
        assert problem.is_feasible(d.resolutions, d.fps)
        y_measured = problem.evaluate_measured(d.resolutions, d.fps, horizon=5.0)
        # the measured outcome should not be wildly worse than claimed
        assert y_measured[0] < d.outcome[0] * 2 + 0.05

    def test_learned_benefit_correlates_with_truth(self):
        problem = EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])
        pref = make_preference(problem, weights=[1, 2, 1, 0.5, 1.5])
        dm = DecisionMaker(pref, rng=1)
        pamo = PaMO(
            problem, decision_maker=dm, n_profile=30, n_outcome_space=20, n_pref_queries=12,
            batch_size=2, n_iterations=3, n_pool=10, rng=1,
        )
        pamo.optimize()
        gen = np.random.default_rng(5)
        ys = np.stack(
            [problem.evaluate(*problem.sample_decision(gen)) for _ in range(25)]
        )
        learned = pamo.learner.utility(ys)
        truth = pref.value(ys)
        corr = np.corrcoef(learned, truth)[0, 1]
        assert corr > 0.7, f"learned/true benefit correlation {corr:.2f}"
