"""Tests for the BO driver on a synthetic benefit landscape."""

import numpy as np
import pytest

from repro.bo import BOLoop, QNEI, QSR
from repro.gp import GPRegressor


def _true_benefit(x):
    """Smooth 1-D landscape peaking at x = 0.7."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return np.exp(-20 * (x - 0.7) ** 2) + 0.1 * np.sin(6 * x)


class GPAdapter:
    """Minimal SurrogateAdapter over a single GP of the benefit."""

    def __init__(self, x0, z0):
        self.x = np.atleast_2d(np.asarray(x0, dtype=float))
        self.z = np.asarray(z0, dtype=float)
        self.gp = GPRegressor().fit(self.x, self.z)
        self.n_updates = 0

    def sample_benefit(self, x, n_samples, rng):
        return self.gp.sample_posterior(np.atleast_2d(x), n_samples, rng=rng)

    def update(self, x, observations):
        self.x = np.vstack([self.x, np.atleast_2d(x)])
        self.z = np.concatenate([self.z, np.asarray(observations, dtype=float)])
        self.gp = GPRegressor().fit(self.x, self.z)
        self.n_updates += 1


def _make_loop(seed=0, acquisition=None, delta=0.01, n_iterations=8, batch_size=2):
    gen = np.random.default_rng(seed)
    x0 = gen.uniform(0, 1, (5, 1))
    z0 = _true_benefit(x0)
    adapter = GPAdapter(x0, z0)
    loop = BOLoop(
        adapter,
        observe=lambda xb: _true_benefit(xb),
        benefit_of=lambda obs: np.asarray(obs),
        candidates=lambda rng: rng.uniform(0, 1, (24, 1)),
        acquisition=acquisition or QNEI(n_samples=64),
        batch_size=batch_size,
        delta=delta,
        n_iterations=n_iterations,
        rng=seed,
    )
    return adapter, loop, x0, z0


class TestBOLoop:
    def test_finds_near_optimum(self):
        adapter, loop, x0, z0 = _make_loop(seed=1, n_iterations=10)
        res = loop.run(initial_x=x0, initial_z=z0)
        assert res.best_z > 0.9  # true max ~1.05
        assert abs(res.best_x[0] - 0.7) < 0.15

    def test_improves_over_initial(self):
        adapter, loop, x0, z0 = _make_loop(seed=2)
        res = loop.run(initial_x=x0, initial_z=z0)
        assert res.best_z >= float(np.max(z0))

    def test_adapter_updated_each_iteration(self):
        adapter, loop, x0, z0 = _make_loop(seed=0, n_iterations=3, delta=1e-9)
        res = loop.run(initial_x=x0, initial_z=z0)
        assert adapter.n_updates == res.n_iterations

    def test_convergence_flag_with_loose_delta(self):
        adapter, loop, x0, z0 = _make_loop(seed=0, delta=5.0, n_iterations=10)
        res = loop.run(initial_x=x0, initial_z=z0)
        assert res.converged
        assert res.n_iterations <= 2

    def test_max_iters_respected(self):
        adapter, loop, x0, z0 = _make_loop(seed=0, delta=1e-12, n_iterations=3)
        res = loop.run(initial_x=x0, initial_z=z0)
        assert res.n_iterations == 3
        assert not res.converged

    def test_history_recorded(self):
        adapter, loop, x0, z0 = _make_loop(seed=0, n_iterations=4, delta=1e-12)
        res = loop.run(initial_x=x0, initial_z=z0)
        assert len(res.history_z) == res.n_iterations

    def test_runs_without_warm_start(self):
        adapter, loop, _, _ = _make_loop(seed=3, n_iterations=4)
        res = loop.run()
        assert np.isfinite(res.best_z)

    def test_mismatched_warm_start_raises(self):
        adapter, loop, x0, z0 = _make_loop()
        with pytest.raises(ValueError):
            loop.run(initial_x=x0, initial_z=z0[:2])

    def test_qsr_variant_also_works(self):
        adapter, loop, x0, z0 = _make_loop(seed=4, acquisition=QSR(n_samples=64))
        res = loop.run(initial_x=x0, initial_z=z0)
        assert res.best_z > 0.7

    def test_invalid_params(self):
        adapter, _, x0, z0 = _make_loop()
        with pytest.raises(ValueError):
            BOLoop(
                adapter,
                observe=lambda x: x,
                benefit_of=lambda o: o,
                candidates=lambda r: np.zeros((2, 1)),
                batch_size=0,
            )
        with pytest.raises(ValueError):
            BOLoop(
                adapter,
                observe=lambda x: x,
                benefit_of=lambda o: o,
                candidates=lambda r: np.zeros((2, 1)),
                delta=-0.1,
            )
