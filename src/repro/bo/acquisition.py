"""Monte-Carlo batch acquisition functions (qNEI, qEI, qUCB, qSR).

All four variants from the paper's §5.1 baseline list, implemented with
the reparameterized Monte-Carlo estimators of Wilson et al. (2018) /
BoTorch.  An acquisition consumes a *benefit sampler* — a callable
drawing joint posterior samples of the (latent, noisy) benefit
z = g(f(x)) at arbitrary configuration sets — so it is agnostic to how
the outcome and preference models compose underneath.  Batch
selection (:meth:`AcquisitionFunction.select_batch`) is each
acquisition's one entry point: it scores the whole candidate pool per
greedy round in one NumPy batch over a single shared sample matrix, and
leaves the MC value of the batch it picked in ``last_batch_value``.
Subclasses customize it through a few hooks (``_joint_with_observed``,
``_clip_at_baseline``, ``_transform_samples``, ``_baseline_values``).

* **qNEI** (Eq. 12, the paper's choice): improvement over the *noisy*
  best — the incumbent is re-sampled jointly with the candidates each
  draw, which keeps inaccurate early models from locking in a wrong
  incumbent ("anti-noise").
* **qEI**: improvement over a fixed best observed value.
* **qUCB**: E[max_i (μ_i + √(βπ/2)·|z_i − μ_i|)].
* **qSR**: simple regret, E[max_i z_i].
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.obs import telemetry
from repro.utils import as_generator, check_positive
from repro.utils.rng import RngLike

#: Joint benefit sampler: (x_points, n_samples, rng) -> (n_samples, n_points)
BenefitSampler = Callable[[np.ndarray, int, np.random.Generator], np.ndarray]


class AcquisitionFunction:
    """Batch acquisition over a joint benefit sampler."""

    name: str = "base"

    #: MC estimate of the acquisition value of the last selected batch
    #: (None until :meth:`select_batch` runs; telemetry reads this).
    last_batch_value: float | None = None

    def __init__(self, n_samples: int = 64) -> None:
        if n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {n_samples}")
        self.n_samples = int(n_samples)

    # -- hooks customizing the pooled greedy selection -------------------
    #: join the observed configurations into the joint sample (qNEI)
    _joint_with_observed: bool = False
    #: clip improvements at a per-sample baseline (EI family)
    _clip_at_baseline: bool = False

    def _transform_samples(self, z: np.ndarray) -> np.ndarray:
        """Per-candidate sample transform (identity except qUCB)."""
        return z

    def _baseline_values(
        self, z_obs: np.ndarray | None, observed_z: np.ndarray | None, n_samples: int
    ) -> np.ndarray:
        """Per-sample incumbent values to improve upon."""
        return np.full(n_samples, -np.inf)

    def select_batch(
        self,
        sampler: BenefitSampler,
        pool: np.ndarray,
        batch_size: int,
        *,
        observed_x: np.ndarray | None = None,
        observed_z: np.ndarray | None = None,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Greedy batch construction over ONE joint posterior sample set.

        Draws a single joint sample matrix over the whole pool (plus the
        observed points for qNEI), then greedily grows the batch by
        picking, each round, the candidate maximizing the MC estimate of
        the batch acquisition — all candidates compared on common random
        numbers.  One sampler call total, O(pool · batch · samples)
        arithmetic afterwards.  Returns indices into ``pool``.

        Every greedy round scores the whole pool in one NumPy batch over
        the shared MC sample matrix.
        """
        pool = np.atleast_2d(np.asarray(pool, dtype=float))
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if pool.shape[0] < batch_size:
            raise ValueError(
                f"pool has {pool.shape[0]} points but batch_size={batch_size}"
            )
        gen = as_generator(rng)
        p = pool.shape[0]

        have_obs = (
            self._joint_with_observed
            and observed_x is not None
            and len(observed_x) > 0
        )
        if have_obs:
            joint = np.vstack([pool, np.atleast_2d(np.asarray(observed_x, dtype=float))])
        else:
            joint = pool
        z = sampler(joint, self.n_samples, gen)  # (S, P[+O])
        telemetry.counter("bo.acq_selections")
        telemetry.counter("bo.acq_mc_samples", self.n_samples * joint.shape[0])
        z_pool = self._transform_samples(z[:, :p])
        z_obs = z[:, p:] if have_obs else None
        baseline = self._baseline_values(z_obs, observed_z, self.n_samples)

        clip = self._clip_at_baseline and bool(np.any(np.isfinite(baseline)))
        safe_base = (
            np.where(np.isfinite(baseline), baseline, -np.inf) if clip else None
        )

        chosen: list[int] = []
        current = np.full(self.n_samples, -np.inf)
        mask = np.zeros(p, dtype=bool)
        for _ in range(batch_size):
            cand_max = np.maximum(current[:, None], z_pool)  # (S, P)
            if clip:
                vals = np.clip(cand_max - safe_base[:, None], 0.0, None)
                vals = np.where(np.isfinite(vals), vals, cand_max)
                scores = vals.mean(axis=0)
            else:
                # no incumbent: pure exploration on the expected max
                scores = cand_max.mean(axis=0)
            telemetry.counter("acq.vectorized_batches")
            scores = np.where(mask, -np.inf, scores)
            best = int(np.argmax(scores))
            mask[best] = True
            chosen.append(best)
            current = np.maximum(current, z_pool[:, best])
            self.last_batch_value = float(scores[best])
        return np.array(chosen, dtype=int)


class QNEI(AcquisitionFunction):
    """Batch *noisy* expected improvement (the paper's acquisition)."""

    name = "qNEI"
    _joint_with_observed = True
    _clip_at_baseline = True

    def _baseline_values(self, z_obs, observed_z, n_samples):
        if z_obs is None or z_obs.shape[1] == 0:
            return np.full(n_samples, -np.inf)
        return z_obs.max(axis=1)


class QEI(AcquisitionFunction):
    """Batch expected improvement over the best *observed* value."""

    name = "qEI"
    _clip_at_baseline = True

    def _baseline_values(self, z_obs, observed_z, n_samples):
        if observed_z is None or len(observed_z) == 0:
            return np.full(n_samples, -np.inf)
        return np.full(n_samples, float(np.max(observed_z)))


class QUCB(AcquisitionFunction):
    """Batch upper confidence bound (MC form of Wilson et al. 2018)."""

    name = "qUCB"

    def __init__(self, n_samples: int = 64, beta: float = 2.0) -> None:
        super().__init__(n_samples)
        self.beta = check_positive("beta", beta)

    def _transform_samples(self, z: np.ndarray) -> np.ndarray:
        mu = z.mean(axis=0, keepdims=True)
        return mu + np.sqrt(self.beta * np.pi / 2.0) * np.abs(z - mu)


class QSR(AcquisitionFunction):
    """Batch simple regret: expected best benefit in the batch."""

    name = "qSR"


class ThompsonSampling(AcquisitionFunction):
    """Batch Thompson sampling: each batch slot follows one posterior draw.

    For batch construction, slot j is the argmax of an independent joint
    posterior sample over the pool — the classic parallel-TS scheme.
    """

    name = "TS"

    def select_batch(
        self,
        sampler,
        pool,
        batch_size,
        *,
        observed_x=None,
        observed_z=None,
        rng=None,
    ) -> np.ndarray:
        pool = np.atleast_2d(np.asarray(pool, dtype=float))
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if pool.shape[0] < batch_size:
            raise ValueError(
                f"pool has {pool.shape[0]} points but batch_size={batch_size}"
            )
        gen = as_generator(rng)
        draws = sampler(pool, max(batch_size, 2), gen)  # (>=b, P)
        telemetry.counter("bo.acq_selections")
        telemetry.counter("bo.acq_mc_samples", max(batch_size, 2) * pool.shape[0])
        chosen: list[int] = []
        for j in range(batch_size):
            order = np.argsort(-draws[j])
            pick = next(int(i) for i in order if int(i) not in chosen)
            chosen.append(pick)
        self.last_batch_value = float(np.mean([draws[j, c] for j, c in enumerate(chosen)]))
        return np.array(chosen, dtype=int)


class RandomDesignAcquisition(AcquisitionFunction):
    """Uniform-random batch selection — the ladder's always-feasible rung.

    Never touches the surrogate, so it cannot fail on an
    ill-conditioned posterior; the BO loop degenerates to random
    search, which is exactly the graceful floor the degradation ladder
    wants.
    """

    name = "random"

    def __init__(self, n_samples: int = 2) -> None:
        super().__init__(n_samples)

    def select_batch(
        self,
        sampler,
        pool,
        batch_size,
        *,
        observed_x=None,
        observed_z=None,
        rng=None,
    ) -> np.ndarray:
        pool = np.atleast_2d(np.asarray(pool, dtype=float))
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if pool.shape[0] < batch_size:
            raise ValueError(
                f"pool has {pool.shape[0]} points but batch_size={batch_size}"
            )
        gen = as_generator(rng)
        telemetry.counter("bo.acq_selections")
        self.last_batch_value = 0.0
        return np.sort(gen.choice(pool.shape[0], size=batch_size, replace=False))


#: Exceptions a degraded model stack may raise during batch selection
#: that the fallback ladder is allowed to absorb.
_RECOVERABLE = (
    np.linalg.LinAlgError,
    FloatingPointError,
    ValueError,
    RuntimeError,
)


class FallbackAcquisition(AcquisitionFunction):
    """Degradation ladder over acquisition rungs (qNEI → qUCB → random).

    Tries each rung's :meth:`select_batch` in order; a rung failing
    with a numerical error (singular posterior, non-finite samples, …)
    drops to the next.  A :class:`RandomDesignAcquisition` terminal
    rung is appended automatically, so selection as a whole cannot
    raise on model pathology — the run degrades instead of dying.
    Fallbacks are counted (``bo.acq_fallbacks``) and logged as
    ``fault.acq_fallback`` events; :attr:`active_rung` names the rung
    that produced the last batch.
    """

    name = "fallback"

    def __init__(self, *rungs: AcquisitionFunction) -> None:
        if not rungs:
            raise ValueError("FallbackAcquisition needs at least one rung")
        ladder = list(rungs)
        if not isinstance(ladder[-1], RandomDesignAcquisition):
            ladder.append(RandomDesignAcquisition())
        self.rungs: tuple[AcquisitionFunction, ...] = tuple(ladder)
        self.n_samples = max(getattr(r, "n_samples", 2) for r in self.rungs)
        self.active_rung: str = self.rungs[0].name

    def select_batch(
        self,
        sampler,
        pool,
        batch_size,
        *,
        observed_x=None,
        observed_z=None,
        rng=None,
    ) -> np.ndarray:
        last_exc: BaseException | None = None
        for i, rung in enumerate(self.rungs):
            try:
                idx = rung.select_batch(
                    sampler,
                    pool,
                    batch_size,
                    observed_x=observed_x,
                    observed_z=observed_z,
                    rng=rng,
                )
            except _RECOVERABLE as exc:
                last_exc = exc
                telemetry.counter("bo.acq_fallbacks")
                telemetry.event(
                    "fault.acq_fallback",
                    failed_rung=rung.name,
                    error=f"{type(exc).__name__}: {exc}",
                    next_rung=(
                        self.rungs[i + 1].name if i + 1 < len(self.rungs) else None
                    ),
                )
                continue
            self.active_rung = rung.name
            self.last_batch_value = rung.last_batch_value
            return idx
        # The random terminal rung only raises on caller errors
        # (bad batch_size / empty pool) — those must surface.
        assert last_exc is not None
        raise last_exc


def default_ladder(
    primary: AcquisitionFunction, *, n_samples: int | None = None
) -> FallbackAcquisition:
    """The paper pipeline's standard ladder: primary → qUCB → random.

    Idempotent: a primary that is already a ladder comes back as-is.
    """
    if isinstance(primary, FallbackAcquisition):
        return primary
    n = n_samples or getattr(primary, "n_samples", 32)
    rungs = [primary]
    if not isinstance(primary, QUCB):
        rungs.append(QUCB(n_samples=n))
    return FallbackAcquisition(*rungs)


_REGISTRY = {
    "qnei": QNEI,
    "qei": QEI,
    "qucb": QUCB,
    "qsr": QSR,
    "ts": ThompsonSampling,
    "random": RandomDesignAcquisition,
}


def make_acquisition(name: str, *, n_samples: int = 64, **kwargs) -> AcquisitionFunction:
    """Factory by name ('qNEI' | 'qEI' | 'qUCB' | 'qSR', case-insensitive)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ValueError(f"unknown acquisition {name!r}; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[key](n_samples=n_samples, **kwargs)
