"""Composite kernels: sums and products with gradient propagation.

Outcome surfaces sometimes decompose (e.g. a smooth resolution trend
plus small fps ripples); composite kernels let the bank express that
while keeping the analytic-gradient MLL fitting path intact.  The
composite's log-parameter vector concatenates its children's vectors.
"""

from __future__ import annotations

import numpy as np

from repro.gp.kernels import Kernel


class _BinaryKernel(Kernel):
    """Shared plumbing for two-child composites."""

    def __init__(self, left: Kernel, right: Kernel) -> None:
        if left.n_dims != right.n_dims:
            raise ValueError(
                f"children disagree on dims: {left.n_dims} vs {right.n_dims}"
            )
        self.left = left
        self.right = right
        # Kernel.__init__ intentionally not called: parameters live in
        # the children; the composite only forwards.

    def _profile(self, d2, *, grads):  # pragma: no cover - from_diff is overridden
        raise NotImplementedError("composites combine their children's from_diff")

    @property
    def n_dims(self) -> int:
        return self.left.n_dims

    @property
    def lengthscales(self) -> np.ndarray:  # informational
        return np.concatenate([self.left.lengthscales, self.right.lengthscales])

    @lengthscales.setter
    def lengthscales(self, value) -> None:  # pragma: no cover - unused
        raise AttributeError("set children lengthscales directly")

    @property
    def n_params(self) -> int:
        return self.left.n_params + self.right.n_params

    def get_log_params(self) -> np.ndarray:
        return np.concatenate(
            [self.left.get_log_params(), self.right.get_log_params()]
        )

    def set_log_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.n_params:
            raise ValueError(f"expected {self.n_params} log-params, got {theta.size}")
        nl = self.left.n_params
        self.left.set_log_params(theta[:nl])
        self.right.set_log_params(theta[nl:])


class SumKernel(_BinaryKernel):
    """k(x, x') = k_left(x, x') + k_right(x, x')."""

    def from_diff(self, diff, *, grads=True):
        kl, gl = self.left.from_diff(diff, grads=grads)
        kr, gr = self.right.from_diff(diff, grads=grads)
        return kl + kr, gl + gr

    def diag(self, x):
        """Diagonal of k(x, x): sum of children's diagonals."""
        return self.left.diag(x) + self.right.diag(x)


class ProductKernel(_BinaryKernel):
    """k(x, x') = k_left(x, x') · k_right(x, x')."""

    def from_diff(self, diff, *, grads=True):
        kl, gl = self.left.from_diff(diff, grads=grads)
        kr, gr = self.right.from_diff(diff, grads=grads)
        # product rule: each child's derivative times the other child
        return kl * kr, [g * kr for g in gl] + [kl * g for g in gr]

    def diag(self, x):
        """Diagonal of k(x, x): product of children's diagonals."""
        return self.left.diag(x) * self.right.diag(x)
