"""Property tests: the incremental GP update equals the from-scratch fit.

``GPRegressor.update`` extends the Cholesky factor by a block
(O(n²m)) instead of refitting (O(n³)).  These tests pin the
equivalence across random shapes, kernels, hyperparameters, and
y-normalization settings: the updated posterior must match a fresh
``fit(optimize=False)`` on the concatenated data to tight tolerance.
``update`` seeds the shared factor cache for the concatenated data, so
the cache is cleared before every reference fit: the reference then
factorizes from scratch instead of reading the update's factor back.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import GPRegressor, Matern52Kernel, RBFKernel
from repro.gp import cache as gp_cache

KERNELS = (RBFKernel, Matern52Kernel)

#: updated and reference posteriors must agree to this tolerance
ATOL = 1e-8


@pytest.fixture(autouse=True)
def _fresh_chol_cache():
    gp_cache.clear()
    yield
    gp_cache.clear()


@st.composite
def gp_update_case(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.integers(1, 3))
    n0 = draw(st.integers(4, 25))
    m = draw(st.integers(1, 6))
    cls = draw(st.sampled_from(KERNELS))
    ell = draw(st.floats(0.1, 2.0))
    noise = draw(st.floats(1e-6, 1e-2))
    gen = np.random.default_rng(seed)
    x = gen.uniform(-1.0, 1.0, size=(n0 + m, d))
    y = np.sin(2.0 * x.sum(axis=1)) + 0.1 * gen.standard_normal(n0 + m)
    kernel = cls(np.full(d, ell))
    return kernel, noise, x, y, n0


def _posterior(gp: GPRegressor, probe: np.ndarray):
    mean, var = gp.predict(probe)
    return mean, var


class TestIncrementalUpdateEquivalence:
    @given(gp_update_case())
    @settings(max_examples=40, deadline=None)
    def test_update_matches_from_scratch_fit(self, case):
        kernel, noise, x, y, n0 = case
        probe = np.linspace(-1.0, 1.0, 7)[:, None] * np.ones(x.shape[1])[None, :]

        import copy

        base = GPRegressor(copy.deepcopy(kernel), noise=noise)
        base.fit(x[:n0], y[:n0], optimize=False)
        base.update(x[n0:], y[n0:])

        gp_cache.clear()
        ref = GPRegressor(copy.deepcopy(kernel), noise=noise)
        ref.fit(x, y, optimize=False)

        m_fast, v_fast = _posterior(base, probe)
        m_ref, v_ref = _posterior(ref, probe)
        np.testing.assert_allclose(m_fast, m_ref, rtol=0, atol=ATOL)
        np.testing.assert_allclose(v_fast, v_ref, rtol=0, atol=ATOL)

    @given(gp_update_case())
    @settings(max_examples=20, deadline=None)
    def test_repeated_updates_stay_consistent(self, case):
        # appending one block at a time == appending everything at once
        kernel, noise, x, y, n0 = case
        probe = np.zeros((1, x.shape[1]))

        import copy

        stepwise = GPRegressor(copy.deepcopy(kernel), noise=noise)
        stepwise.fit(x[:n0], y[:n0], optimize=False)
        for k in range(n0, x.shape[0]):
            stepwise.update(x[k : k + 1], y[k : k + 1])

        gp_cache.clear()
        bulk = GPRegressor(copy.deepcopy(kernel), noise=noise)
        bulk.fit(x, y, optimize=False)

        m_step, v_step = _posterior(stepwise, probe)
        m_bulk, v_bulk = _posterior(bulk, probe)
        np.testing.assert_allclose(m_step, m_bulk, rtol=0, atol=ATOL)
        np.testing.assert_allclose(v_step, v_bulk, rtol=0, atol=ATOL)
