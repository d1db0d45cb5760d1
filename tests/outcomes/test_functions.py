"""Tests for the Eq. 2–5 closed-form outcome functions."""

import numpy as np
import pytest

from repro.core.problem import EVAProblem
from repro.outcomes import OBJECTIVES, OutcomeFunctions, default_accuracy_fn
from repro.video import DeviceProfile, EncoderModel


@pytest.fixture
def fns():
    return OutcomeFunctions()


def _outcome_vector(fns, resolutions, fps, assignment, bandwidths_mbps):
    """The analytic [ltc, acc, net, com, eng] of one explicit decision."""
    problem = EVAProblem(len(resolutions), bandwidths_mbps, outcomes=fns)
    return problem.evaluate_decision(resolutions, fps, assignment)


class TestDefaultAccuracyFn:
    def test_monotone_in_resolution(self):
        r = np.array([300.0, 600.0, 1200.0, 2000.0])
        s = np.full(4, 30.0)
        acc = default_accuracy_fn(r, s)
        assert np.all(np.diff(acc) > 0)

    def test_monotone_in_fps(self):
        s = np.array([1.0, 5.0, 15.0, 30.0])
        r = np.full(4, 1920.0)
        acc = default_accuracy_fn(r, s)
        assert np.all(np.diff(acc) > 0)

    def test_range_matches_fig2(self):
        # Fig. 2's mAP spans roughly 0.2 (low config) to 0.8 (high).
        low = default_accuracy_fn(np.array([300.0]), np.array([1.0]))[0]
        high = default_accuracy_fn(np.array([2000.0]), np.array([30.0]))[0]
        assert low < 0.35
        assert 0.7 < high <= 1.0

    def test_fps_clipped_at_native(self):
        a = default_accuracy_fn(np.array([960.0]), np.array([30.0]))
        b = default_accuracy_fn(np.array([960.0]), np.array([60.0]))
        assert a[0] == pytest.approx(b[0])


class TestObjectives:
    def test_canonical_order(self):
        assert OBJECTIVES == ("ltc", "acc", "net", "com", "eng")


class TestOutcomeFunctions:
    def test_accuracy_mean_over_streams(self, fns):
        r = np.array([300.0, 2000.0])
        s = np.array([30.0, 30.0])
        acc = fns.accuracy(r, s)
        a_lo = fns.accuracy([300.0], [30.0])
        a_hi = fns.accuracy([2000.0], [30.0])
        assert acc == pytest.approx((a_lo + a_hi) / 2)

    def test_network_sums_streams(self, fns):
        one = fns.network_mbps([960.0], [10.0])
        two = fns.network_mbps([960.0, 960.0], [10.0, 10.0])
        assert two == pytest.approx(2 * one)

    def test_computation_scales_with_fps(self, fns):
        c10 = fns.computation_tflops([960.0], [10.0])
        c30 = fns.computation_tflops([960.0], [30.0])
        assert c30 == pytest.approx(3 * c10)

    def test_energy_positive_and_increasing(self, fns):
        e_small = fns.energy_watts([480.0], [5.0])
        e_big = fns.energy_watts([1920.0], [30.0])
        assert 0 < e_small < e_big

    def test_latency_uses_assigned_bandwidth(self, fns):
        lat_fast = fns.latency([960.0], [10.0], [0], [100.0])
        lat_slow = fns.latency([960.0], [10.0], [0], [5.0])
        assert lat_slow > lat_fast

    def test_latency_ignores_dropped(self, fns):
        lat = fns.latency([960.0, 480.0], [10.0, 10.0], [0, -1], [10.0])
        expected = fns.latency([960.0], [10.0], [0], [10.0])
        assert lat == pytest.approx(expected)

    def test_latency_all_dropped_raises(self, fns):
        with pytest.raises(ValueError):
            fns.latency([960.0], [10.0], [-1], [10.0])

    def test_latency_bad_assignment_raises(self, fns):
        with pytest.raises(ValueError):
            fns.latency([960.0], [10.0], [4], [10.0])

    def test_vector_order_and_shape(self, fns):
        v = _outcome_vector(fns, [960.0, 480.0], [10.0, 5.0], [0, 0], [50.0])
        assert v.shape == (5,)
        assert v[0] == fns.latency([960.0, 480.0], [10.0, 5.0], [0, 0], [50.0])
        assert v[1] == fns.accuracy([960.0, 480.0], [10.0, 5.0])

    def test_vector_matches_fig2_magnitudes(self, fns):
        """Full config ~ Fig. 2 ceilings: ~15 Mbps, tens of TFLOPs."""
        v = _outcome_vector(fns, [2000.0], [30.0], [0], [100.0])
        ltc, acc, net, com, eng = v
        assert 0.05 < ltc < 1.0
        assert 0.6 < acc < 1.0
        assert 10 < net < 25
        assert 20 < com < 60
        assert eng > 0

    def test_conflict_between_objectives(self, fns):
        """§2.3: accuracy and resources conflict by construction."""
        hi = _outcome_vector(fns, [2000.0], [30.0], [0], [100.0])
        lo = _outcome_vector(fns, [300.0], [2.0], [0], [100.0])
        assert hi[1] > lo[1]  # better accuracy ...
        assert hi[2] > lo[2] and hi[3] > lo[3] and hi[4] > lo[4]  # ... costs more

    def test_custom_accuracy_fn(self):
        fns = OutcomeFunctions(accuracy_fn=lambda r, s: np.full(np.shape(r), 0.42))
        assert fns.accuracy([960.0], [10.0]) == pytest.approx(0.42)
