"""Tests for the profiling harness and GP outcome surrogate bank."""

import numpy as np
import pytest

from repro.outcomes import OutcomeSurrogateBank, profile_configuration, profile_grid
from repro.outcomes.profiler import samples_to_arrays
from repro.video import SceneConfig, generate_clip


@pytest.fixture(scope="module")
def clip():
    return generate_clip(SceneConfig(n_objects=8), n_frames=45, rng=0)


@pytest.fixture(scope="module")
def grid_samples(clip):
    return profile_grid(
        clip, resolutions=[400, 900, 1500, 2000], fps_values=[2, 10, 20, 30], rng=1
    )


class TestProfileConfiguration:
    def test_sample_fields_finite(self, clip):
        s = profile_configuration(clip, 960.0, 10.0, rng=0)
        v = s.vector()
        assert v.shape == (5,)
        assert np.all(np.isfinite(v))
        assert 0.0 <= s.accuracy <= 1.0

    def test_invalid_config_raises(self, clip):
        with pytest.raises(ValueError):
            profile_configuration(clip, -100.0, 10.0)

    def test_fig2_shapes_accuracy(self, grid_samples):
        """mAP grows with resolution at fixed fps (Fig. 2 surface 1)."""
        by_res = {}
        for s in grid_samples:
            if s.fps == 30:
                by_res[s.resolution] = s.accuracy
        accs = [by_res[r] for r in sorted(by_res)]
        assert accs[-1] > accs[0]

    def test_fig2_shapes_bandwidth(self, grid_samples):
        """Bandwidth grows with both knobs (Fig. 2 surface 3)."""
        lo = next(s for s in grid_samples if s.resolution == 400 and s.fps == 2)
        hi = next(s for s in grid_samples if s.resolution == 2000 and s.fps == 30)
        assert hi.network_mbps > 10 * lo.network_mbps

    def test_fig2_latency_independent_of_fps(self, grid_samples):
        """e2e latency is flat in fps when uncontended (Fig. 2 surface 2)."""
        at_900 = [s for s in grid_samples if s.resolution == 900]
        lats = [s.latency for s in at_900]
        assert max(lats) - min(lats) < 1e-9

    def test_fig2_computation_and_power_scale(self, grid_samples):
        hi = next(s for s in grid_samples if s.resolution == 2000 and s.fps == 30)
        lo = next(s for s in grid_samples if s.resolution == 400 and s.fps == 2)
        assert hi.computation_tflops > lo.computation_tflops
        assert hi.power_watts > lo.power_watts

    def test_samples_to_arrays(self, grid_samples):
        x, y = samples_to_arrays(grid_samples)
        assert x.shape == (16, 2)
        assert y.shape == (16, 5)


class TestOutcomeSurrogateBank:
    @pytest.fixture(scope="class")
    def bank(self, grid_samples):
        return OutcomeSurrogateBank().fit(*samples_to_arrays(grid_samples), rng=0)

    def test_predict_shapes(self, bank):
        mean, var = bank.predict_per_stream([[960.0, 10.0], [1500.0, 20.0]])
        assert mean.shape == (2, 5)
        assert var.shape == (2, 5)
        assert np.all(var > 0)

    def test_predictions_near_training_data(self, bank, grid_samples):
        x, y = samples_to_arrays(grid_samples)
        mean, _ = bank.predict_per_stream(x)
        # network/computation are nearly deterministic -> tight fit
        np.testing.assert_allclose(mean[:, 2], y[:, 2], rtol=0.2, atol=0.5)
        np.testing.assert_allclose(mean[:, 3], y[:, 3], rtol=0.2, atol=1.0)

    def test_r2_reasonable(self, bank, grid_samples):
        x, y = samples_to_arrays(grid_samples)
        r2 = bank.r2_per_objective(x, y)
        assert set(r2) == {"ltc", "acc", "net", "com", "eng"}
        assert r2["net"] > 0.9
        assert r2["com"] > 0.9

    def test_sampling_shape(self, bank):
        s = bank.sample_per_stream([[960.0, 10.0]] * 3, n_samples=7, rng=0)
        assert s.shape == (7, 3, 5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            OutcomeSurrogateBank().predict_per_stream([[960.0, 10.0]])

    def test_update_conditions_new_data(self, bank):
        x_new = np.array([[700.0, 7.0]])
        y_new = np.array([[0.1, 0.5, 2.0, 3.0, 5.0]])
        updated = bank.update(x_new, y_new)
        mean, _ = updated.predict_per_stream(x_new)
        # prediction pulled toward the new observation
        assert abs(mean[0, 1] - 0.5) < 0.2

    def test_aggregate_mean_sum_split(self, bank):
        per_stream = np.array(
            [
                [0.1, 0.6, 2.0, 3.0, 4.0],
                [0.3, 0.8, 1.0, 1.0, 2.0],
            ]
        )
        agg = bank.aggregate(per_stream)
        assert agg[0] == pytest.approx(0.2)  # ltc mean
        assert agg[1] == pytest.approx(0.7)  # acc mean
        assert agg[2] == pytest.approx(3.0)  # net sum
        assert agg[3] == pytest.approx(4.0)  # com sum
        assert agg[4] == pytest.approx(6.0)  # eng sum

    def test_aggregate_with_transmission(self, bank):
        per_stream = np.zeros((2, 5))
        agg = bank.aggregate(
            per_stream,
            assignment=[0, 1],
            bandwidths_mbps=[10.0, 100.0],
            bits_per_frame=np.array([1e6, 1e6]),
        )
        # tx latencies: 0.1 and 0.01 -> mean 0.055
        assert agg[0] == pytest.approx(0.055)

    def test_aggregate_batched(self, bank):
        batch = np.random.default_rng(0).random((4, 3, 5))
        agg = bank.aggregate(batch)
        assert agg.shape == (4, 5)

    def test_aggregate_requires_bits(self, bank):
        with pytest.raises(ValueError):
            bank.aggregate(np.zeros((2, 5)), assignment=[0, 0])

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            OutcomeSurrogateBank(resolution_bounds=(100.0, 100.0))
