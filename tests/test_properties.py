"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bo import eubo_closed_form
from repro.core import ConfigSpace, EVAProblem, make_preference
from repro.gp import GPRegressor
from repro.utils import normalize_minmax


# ---------------------------------------------------------------------------
# EUBO: E[max(g1, g2)] >= max(E[g1], E[g2]) (Jensen) and monotone in means.
# ---------------------------------------------------------------------------
@st.composite
def bivariate_normal(draw):
    mu = np.array([draw(st.floats(-5, 5)), draw(st.floats(-5, 5))])
    s1 = draw(st.floats(0.01, 3.0))
    s2 = draw(st.floats(0.01, 3.0))
    rho = draw(st.floats(-0.95, 0.95))
    cov = np.array([[s1**2, rho * s1 * s2], [rho * s1 * s2, s2**2]])
    return mu, cov


class TestEuboProperties:
    @given(bivariate_normal())
    @settings(max_examples=80, deadline=None)
    def test_exceeds_max_of_means(self, mc):
        mu, cov = mc
        assert eubo_closed_form(mu, cov) >= max(mu) - 1e-9

    @given(bivariate_normal(), st.floats(0.01, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_mean_shift(self, mc, shift):
        mu, cov = mc
        base = eubo_closed_form(mu, cov)
        shifted = eubo_closed_form(mu + shift, cov)
        assert shifted == pytest.approx(base + shift, abs=1e-9)


# ---------------------------------------------------------------------------
# GP regression: posterior contracts as data grows; mean interpolates.
# ---------------------------------------------------------------------------
class TestGPProperties:
    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_posterior_variance_shrinks_with_data(self, seed):
        gen = np.random.default_rng(seed)
        x = np.sort(gen.uniform(0, 5, 20)).reshape(-1, 1)
        y = np.sin(x[:, 0])
        gp_small = GPRegressor().fit(x[:6], y[:6], optimize=False)
        gp_big = GPRegressor().fit(x, y, optimize=False)
        probe = np.array([[2.5]])
        _, v_small = gp_small.predict(probe)
        _, v_big = gp_big.predict(probe)
        # compare on the standardized scale: y-standardization rescales
        # each posterior by the variance of its own targets
        assert v_big[0] / np.var(y) <= v_small[0] / np.var(y[:6]) + 1e-9


# ---------------------------------------------------------------------------
# Benefit (Eq. 13): utopia is the unique maximizer; translation-invariant
# under the normalization bounds.
# ---------------------------------------------------------------------------
class TestBenefitProperties:
    @given(st.lists(st.floats(0.1, 5.0), min_size=5, max_size=5), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_utopia_maximizes_benefit(self, weights, seed):
        problem = EVAProblem(
            n_streams=2,
            bandwidths_mbps=[10.0, 20.0],
            config_space=ConfigSpace(
                resolutions=(300.0, 900.0, 2000.0), fps_values=(1.0, 10.0, 30.0)
            ),
        )
        pref = make_preference(problem, weights=weights)
        u_val = pref.value(pref.utopia)
        r, s = problem.sample_decision(rng=seed)
        assert pref.value(problem.evaluate(r, s)) <= u_val + 1e-12

    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.1, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_normalize_minmax_bounds(self, vals, span):
        lo = np.array([-10.0, -10.0, -10.0])
        hi = lo + span
        out = normalize_minmax(np.array(vals), lo, hi)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


# ---------------------------------------------------------------------------
# EVAProblem: evaluation is deterministic and permutation-covariant in
# the stream order for symmetric aggregates.
# ---------------------------------------------------------------------------
class TestProblemProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_evaluate_deterministic(self, seed):
        problem = EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0])
        r, s = problem.sample_decision(rng=seed)
        y1 = problem.evaluate(r, s)
        y2 = problem.evaluate(r, s)
        np.testing.assert_array_equal(y1, y2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_symmetric_objectives_permutation_invariant(self, seed):
        problem = EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0])
        gen = np.random.default_rng(seed)
        r, s = problem.sample_decision(gen)
        perm = gen.permutation(3)
        y1 = problem.evaluate(r, s)
        y2 = problem.evaluate(r[perm], s[perm])
        # acc/net/com/eng aggregate symmetrically over streams
        np.testing.assert_allclose(y1[1:], y2[1:], rtol=1e-12)
