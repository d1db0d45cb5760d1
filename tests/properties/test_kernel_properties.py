"""Property tests: every kernel produces symmetric PSD Gram matrices.

The incremental-Cholesky fast path and the shared factor cache both
lean on these algebraic facts — a kernel that broke symmetry or
positive-semidefiniteness would invalidate every factorization in the
hot path, so they are pinned here across random inputs, shapes, and
hyperparameters.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import Matern52Kernel, RBFKernel

KERNELS = (RBFKernel, Matern52Kernel)


@st.composite
def kernel_and_inputs(draw):
    """A randomly-parameterized kernel plus a random input matrix."""
    cls = draw(st.sampled_from(KERNELS))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 12))
    ell = np.array([draw(st.floats(0.05, 3.0)) for _ in range(d)])
    scale = draw(st.floats(0.1, 5.0))
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, d))
    return cls(ell, scale), x


class TestKernelMatrixProperties:
    @given(kernel_and_inputs())
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, kx):
        kernel, x = kx
        k = kernel(x)
        np.testing.assert_allclose(k, k.T, rtol=0, atol=1e-12)

    @given(kernel_and_inputs())
    @settings(max_examples=60, deadline=None)
    def test_positive_semidefinite(self, kx):
        kernel, x = kx
        eigvals = np.linalg.eigvalsh(kernel(x))
        assert eigvals.min() >= -1e-8 * max(1.0, eigvals.max())

    @given(kernel_and_inputs())
    @settings(max_examples=40, deadline=None)
    def test_diag_matches_full_matrix(self, kx):
        kernel, x = kx
        np.testing.assert_allclose(
            kernel.diag(x), np.diag(kernel(x)), rtol=0, atol=1e-12
        )

    @given(kernel_and_inputs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cross_matrix_transpose_consistent(self, kx, seed):
        kernel, x1 = kx
        x2 = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(5, x1.shape[1]))
        np.testing.assert_allclose(
            kernel(x1, x2), kernel(x2, x1).T, rtol=0, atol=1e-12
        )

    @given(kernel_and_inputs())
    @settings(max_examples=30, deadline=None)
    def test_jittered_matrix_is_choleskyable(self, kx):
        # the exact operation the GP hot path performs on every fit
        kernel, x = kx
        k = kernel(x) + 1e-6 * np.eye(x.shape[0])
        ell = np.linalg.cholesky(k)
        np.testing.assert_allclose(ell @ ell.T, k, rtol=0, atol=1e-10)
