"""Tests for EVAProblem and ConfigSpace."""

import numpy as np
import pytest

from repro.core import ConfigSpace, EVAProblem
from repro.sched import const1_satisfied, const2_satisfied


@pytest.fixture
def problem():
    return EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])


class TestConfigSpace:
    def test_defaults(self):
        cs = ConfigSpace()
        assert len(cs.all_configs()) == 36

    def test_snap(self):
        cs = ConfigSpace()
        assert cs.snap(700.0, 11.0) == (600.0, 10.0)

    def test_bounds(self):
        b = ConfigSpace().bounds()
        assert b.shape == (2, 2)
        assert b[0, 0] == 300.0 and b[0, 1] == 2000.0

    def test_sample_in_knobs(self):
        cs = ConfigSpace()
        r, s = cs.sample(10, rng=0)
        assert all(v in cs.resolutions for v in r)
        assert all(v in cs.fps_values for v in s)

    def test_all_configs(self):
        cs = ConfigSpace(resolutions=(300.0, 600.0), fps_values=(5.0, 10.0, 15.0))
        assert cs.all_configs().shape == (6, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ConfigSpace(resolutions=())
        with pytest.raises(ValueError):
            ConfigSpace(resolutions=(-1.0,))


class TestEVAProblem:
    def test_basic_properties(self, problem):
        assert problem.n_streams == 4
        assert problem.n_servers == 3

    def test_make_streams_splits_high_rate(self):
        # huge resolution at 30 fps: p(r) > 1/30 -> split
        p = EVAProblem(n_streams=1, bandwidths_mbps=[100.0])
        streams = p.make_streams([2000.0], [30.0])
        assert len(streams) > 1
        assert all(s.processing_time <= s.period + 1e-12 for s in streams)

    def test_schedule_satisfies_constraints(self, problem):
        r = np.array([600.0, 600.0, 900.0, 300.0])
        s = np.array([5.0, 10.0, 5.0, 15.0])
        assignment, streams = problem.schedule(r, s)
        assert const2_satisfied(streams, assignment)
        assert const1_satisfied(streams, assignment)

    def test_is_feasible(self, problem):
        assert problem.is_feasible([300.0] * 4, [1.0] * 4)

    def test_evaluate_returns_5_vector(self, problem):
        y = problem.evaluate([600.0] * 4, [5.0] * 4)
        assert y.shape == (5,)
        assert np.all(np.isfinite(y))

    def test_evaluate_monotone_tradeoff(self, problem):
        lo = problem.evaluate([300.0] * 4, [1.0] * 4)
        hi = problem.evaluate([1600.0] * 4, [15.0] * 4)
        assert hi[1] > lo[1]  # accuracy up
        assert hi[2] > lo[2] and hi[3] > lo[3]  # resources up

    def test_evaluate_measured_close_to_analytic(self, problem):
        r = [600.0, 600.0, 300.0, 300.0]
        s = [5.0, 5.0, 10.0, 10.0]
        y_a = problem.evaluate(r, s)
        y_m = problem.evaluate_measured(r, s, horizon=4.0)
        # network/computation/energy track closely
        np.testing.assert_allclose(y_m[2], y_a[2], rtol=0.25)
        np.testing.assert_allclose(y_m[3], y_a[3], rtol=0.25)
        # latency: same order of magnitude (no contention here)
        assert y_m[0] < 3 * y_a[0] + 0.05

    def test_evaluate_decision_explicit_assignment(self, problem):
        r = [600.0] * 4
        s = [5.0] * 4
        y = problem.evaluate_decision(r, s, [0, 0, 1, 2])
        assert y.shape == (5,)

    def test_evaluate_decision_measured_penalizes_overload(self):
        p = EVAProblem(n_streams=3, bandwidths_mbps=[30.0, 30.0])
        r = [2000.0] * 3
        s = [15.0] * 3
        # cram everything on server 0 -> heavy contention
        y_bad = p.evaluate_decision(r, s, [0, 0, 0], measured=True, horizon=4.0)
        y_spread = p.evaluate_decision(r, s, [0, 1, 0], measured=True, horizon=4.0)
        assert y_bad[0] > y_spread[0]

    def test_encode_decode_roundtrip(self, problem):
        r, s = problem.sample_decision(rng=0)
        x = problem.encode(r, s)
        assert x.shape == (8,)
        r2, s2 = problem.decode(x)
        np.testing.assert_array_equal(r, r2)
        np.testing.assert_array_equal(s, s2)

    def test_decode_wrong_size(self, problem):
        with pytest.raises(ValueError):
            problem.decode(np.zeros(5))

    def test_wrong_decision_length(self, problem):
        with pytest.raises(ValueError):
            problem.evaluate([600.0] * 3, [5.0] * 3)

    def test_textures_length_checked(self):
        with pytest.raises(ValueError):
            EVAProblem(n_streams=2, bandwidths_mbps=[10.0], textures=[1.0])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            EVAProblem(n_streams=0, bandwidths_mbps=[10.0])
