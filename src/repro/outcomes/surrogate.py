"""GP outcome-model bank: the f = [f_ltc, f_acc, f_net, f_com, f_eng].

Algorithm 2 line 4: "Fit the outcome functions by GP models based on
the data set D_U".  Each objective gets an independent
:class:`~repro.gp.regression.GPRegressor` over the normalized
per-stream configuration (r, s) ∈ [0,1]².  Aggregation across the M
streams of a decision follows Eq. 2–5 (mean for latency/accuracy, sum
for network/computation/energy), and the latency objective adds the
analytic transmission term θ_bit(r)/B_q on top of the learned compute
latency, as §4.1 prescribes (the GP models the post-scheduling latency
only — the zero-jitter scheduler makes it stable enough to model).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.gp.kernels import Matern52Kernel
from repro.gp.regression import GPRegressor
from repro.outcomes.functions import OBJECTIVES
from repro.outcomes.profiler import OutcomeSample
from repro.utils import as_generator, check_array_2d
from repro.utils.rng import RngLike


class OutcomeSurrogateBank:
    """Five per-stream GP outcome models plus decision-level aggregation.

    Parameters
    ----------
    resolution_bounds, fps_bounds:
        Raw configuration ranges used to normalize inputs to [0, 1]².
    """

    #: aggregation per objective: mean over streams or sum over streams
    _AGG = {"ltc": "mean", "acc": "mean", "net": "sum", "com": "sum", "eng": "sum"}

    def __init__(
        self,
        *,
        resolution_bounds: tuple[float, float] = (200.0, 2000.0),
        fps_bounds: tuple[float, float] = (1.0, 30.0),
    ) -> None:
        if resolution_bounds[0] >= resolution_bounds[1]:
            raise ValueError(f"bad resolution_bounds {resolution_bounds}")
        if fps_bounds[0] >= fps_bounds[1]:
            raise ValueError(f"bad fps_bounds {fps_bounds}")
        self.resolution_bounds = resolution_bounds
        self.fps_bounds = fps_bounds
        self.models: dict[str, GPRegressor] = {}
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _normalize(self, x: np.ndarray) -> np.ndarray:
        """(r, s) raw -> [0,1]²."""
        x = check_array_2d("x", x, n_cols=2)
        lo = np.array([self.resolution_bounds[0], self.fps_bounds[0]])
        hi = np.array([self.resolution_bounds[1], self.fps_bounds[1]])
        return (x - lo) / (hi - lo)

    @property
    def is_fitted(self) -> bool:
        return len(self.models) == len(OBJECTIVES)

    def fit(
        self,
        x,
        y,
        *,
        optimize: bool = True,
        max_opt_points: int = 200,
        rng: RngLike = 0,
    ) -> "OutcomeSurrogateBank":
        """Fit all five GPs from per-stream profiling data.

        ``x`` is (n, 2) raw (resolution, fps); ``y`` is (n, 5) outcome
        vectors in canonical order.  For training sets larger than
        ``max_opt_points`` the (cubic-cost) hyperparameter optimization
        runs on a random subsample, then the GP conditions on the full
        data with those hyperparameters — the standard large-n shortcut.
        """
        x = check_array_2d("x", x, n_cols=2)
        y = check_array_2d("y", y, n_cols=len(OBJECTIVES))
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows, y has {y.shape[0]}")
        self._x = x
        self._y = y
        xn = self._normalize(x)
        gen = as_generator(rng)
        n = x.shape[0]
        subsample = None
        if optimize and n > max_opt_points:
            subsample = gen.choice(n, size=max_opt_points, replace=False)
        for j, name in enumerate(OBJECTIVES):
            gp = GPRegressor(Matern52Kernel(np.full(2, 0.3)), noise=1e-3)
            if subsample is None:
                gp.fit(xn, y[:, j], optimize=optimize, rng=gen)
            else:
                gp.fit(xn[subsample], y[subsample, j], optimize=True, rng=gen)
                gp.fit(xn, y[:, j], optimize=False)
            self.models[name] = gp
        return self

    def fit_samples(
        self, samples: Sequence[OutcomeSample], **kwargs
    ) -> "OutcomeSurrogateBank":
        """Fit from a list of profiler samples."""
        from repro.outcomes.profiler import samples_to_arrays

        x, y = samples_to_arrays(list(samples))
        return self.fit(x, y, **kwargs)

    def update(self, x_new, y_new) -> "OutcomeSurrogateBank":
        """Condition on additional observations (no re-optimization).

        Keeps each model's fitted hyperparameters and appends the new
        data, extending every GP's Cholesky factor incrementally —
        O(n²m) per model instead of the O(n³) from-scratch refit, which
        would be the dominant per-iteration cost of the BO loop.
        """
        if self._x is None or self._y is None:
            raise RuntimeError("bank is not fitted")
        x_new = check_array_2d("x_new", x_new, n_cols=2)
        y_new = check_array_2d("y_new", y_new, n_cols=len(OBJECTIVES))
        if x_new.shape[0] != y_new.shape[0]:
            raise ValueError(
                f"x_new has {x_new.shape[0]} rows, y_new has {y_new.shape[0]}"
            )
        self._x = np.vstack([self._x, x_new])
        self._y = np.vstack([self._y, y_new])
        if not self.is_fitted:
            return self.fit(self._x, self._y, optimize=False)
        xn_new = self._normalize(x_new)
        for j, name in enumerate(OBJECTIVES):
            self.models[name].update(xn_new, y_new[:, j])
        return self

    # ------------------------------------------------------------------
    def predict_per_stream(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean/variance per objective at raw configs ``x``.

        Returns ``(mean, var)`` of shape (n, 5).
        """
        if not self.is_fitted:
            raise RuntimeError("bank is not fitted")
        xn = self._normalize(x)
        means, vars_ = [], []
        for name in OBJECTIVES:
            m, v = self.models[name].predict(xn)
            means.append(m)
            vars_.append(v)
        return np.stack(means, axis=1), np.stack(vars_, axis=1)

    def sample_per_stream(
        self, x, n_samples: int, *, rng: RngLike = None
    ) -> np.ndarray:
        """Joint posterior samples per objective: shape (n_samples, n, 5).

        Objectives are sampled independently (they are separate GPs);
        within an objective the n configs are jointly sampled, which is
        what the batch acquisition needs.
        """
        if not self.is_fitted:
            raise RuntimeError("bank is not fitted")
        xn = self._normalize(x)
        gen = as_generator(rng)
        out = np.empty((n_samples, xn.shape[0], len(OBJECTIVES)))
        for j, name in enumerate(OBJECTIVES):
            out[:, :, j] = self.models[name].sample_posterior(
                xn, n_samples, rng=gen
            )
        return out

    # ------------------------------------------------------------------
    def aggregate(
        self,
        per_stream: np.ndarray,
        assignment: Sequence[int] | None = None,
        bandwidths_mbps: Sequence[float] | None = None,
        bits_per_frame: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decision-level outcome vector(s) from per-stream values.

        ``per_stream`` is (..., M, 5).  Latency/accuracy average over
        streams, the rest sum (Eq. 2–5).  When ``assignment`` and
        ``bandwidths_mbps`` are given, the analytic per-stream
        transmission latency θ_bit/B_q is added before averaging.
        Returns (..., 5).
        """
        arr = np.asarray(per_stream, dtype=float)
        if arr.shape[-1] != len(OBJECTIVES):
            raise ValueError(f"last axis must be {len(OBJECTIVES)}, got {arr.shape}")
        ltc = arr[..., 0]
        if assignment is not None:
            if bandwidths_mbps is None or bits_per_frame is None:
                raise ValueError(
                    "assignment requires bandwidths_mbps and bits_per_frame"
                )
            bw = np.asarray(bandwidths_mbps, dtype=float)
            bits = np.asarray(bits_per_frame, dtype=float)
            q = np.asarray(assignment)
            tx = np.where(q >= 0, bits / (bw[np.clip(q, 0, None)] * 1e6), 0.0)
            ltc = ltc + tx
        out = np.empty(arr.shape[:-2] + (len(OBJECTIVES),))
        out[..., 0] = ltc.mean(axis=-1)
        out[..., 1] = arr[..., 1].mean(axis=-1)
        out[..., 2] = arr[..., 2].sum(axis=-1)
        out[..., 3] = arr[..., 3].sum(axis=-1)
        out[..., 4] = arr[..., 4].sum(axis=-1)
        return out

    def r2_per_objective(self, x_test, y_test) -> dict[str, float]:
        """R² of each model on held-out data (the Fig. 8 metric)."""
        from repro.outcomes.fitting import r2_score

        y_test = check_array_2d("y_test", y_test, n_cols=len(OBJECTIVES))
        mean, _ = self.predict_per_stream(x_test)
        return {
            name: r2_score(y_test[:, j], mean[:, j])
            for j, name in enumerate(OBJECTIVES)
        }
