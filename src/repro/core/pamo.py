"""PaMO: the full Algorithm-2 scheduler, and the PaMO+ oracle variant.

Three phases, exactly as the paper's Algorithm 2:

1. **Outcome function fitting** — profile ``n_profile`` per-stream
   configurations (with measurement noise) and fit the GP outcome bank
   f = [f_ltc, f_acc, f_net, f_com, f_eng].
2. **System preference modeling** — build an outcome space from random
   decisions, then collect ``n_init_comparisons + n_pref_queries``
   pairwise comparisons (random seeds, then EUBO-selected) from the
   decision maker and fit the preference GP ĝ.
3. **Best configuration solving** — a qNEI Bayesian-optimization loop
   over full decisions: each iteration recommends a batch of b
   configurations, runs them through Algorithm 1 + the outcome
   functions ("Profile_and_Algorithm1"), scores them with ĝ, updates
   both models, and stops when the iteration-best benefit moves less
   than δ.

``PaMOPlus`` replaces ĝ with the true preference function (the paper's
upper-bound baseline); everything else is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bo.acquisition import AcquisitionFunction, default_ladder, make_acquisition
from repro.bo.loop import BOLoop, BOLoopState
from repro.core.problem import EVAProblem
from repro.core.result import OptimizationOutcome, ScheduleDecision
from repro.core.scheduler import SchedulerMixin
from repro.obs import telemetry
from repro.obs.diagnostics import (
    emit_outcome_gp_diagnostics,
    emit_preference_diagnostics,
    holdout_rmse,
)
from repro.outcomes.functions import OBJECTIVES
from repro.outcomes.surrogate import OutcomeSurrogateBank
from repro.pref.decision_maker import DecisionMaker, TruePreference
from repro.pref.learner import PreferenceLearner
from repro.sched.grouping import InfeasibleScheduleError
from repro.utils import as_generator, check_positive
from repro.utils.rng import RngLike


class _BenefitSurrogate:
    """SurrogateAdapter composing the outcome bank with a utility head.

    The utility head is either the learned preference GP (PaMO) or the
    true preference function (PaMO+).  Benefit samples propagate
    outcome-model uncertainty through the head; for the learned head the
    preference posterior's marginal variance is added on top.
    """

    def __init__(
        self,
        problem: EVAProblem,
        bank: OutcomeSurrogateBank,
        *,
        learner: PreferenceLearner | None = None,
        true_preference: TruePreference | None = None,
    ) -> None:
        if (learner is None) == (true_preference is None):
            raise ValueError("provide exactly one of learner / true_preference")
        self.problem = problem
        self.bank = bank
        self.learner = learner
        self.true_preference = true_preference
        self._tx_cache: dict[bytes, float] = {}

    # -- transmission latency of a decision (deterministic) --------------
    def _tx_mean(self, x: np.ndarray) -> float:
        key = np.asarray(x, dtype=float).tobytes()
        if key not in self._tx_cache:
            telemetry.counter("pamo.tx_cache.miss")
            r, s = self.problem.decode(x)
            assignment, streams = self.problem.schedule(r, s)
            per_parent: dict[int, list[float]] = {}
            for st, q in zip(streams, assignment):
                per_parent.setdefault(st.parent_id, []).append(
                    st.bits_per_frame / (self.problem.bandwidths_mbps[q] * 1e6)
                )
            self._tx_cache[key] = float(
                np.mean([np.mean(v) for v in per_parent.values()])
            )
        else:
            telemetry.counter("pamo.tx_cache.hit")
        return self._tx_cache[key]

    # -- outcome posterior over decisions ---------------------------------
    def _decision_outcome_samples(
        self, x: np.ndarray, n_samples: int, rng
    ) -> np.ndarray:
        """(n_samples, n_decisions, 5) outcome samples for decisions x."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        m = self.problem.n_streams
        pts = x.reshape(n * m, 2)
        per_stream = self.bank.sample_per_stream(pts, n_samples, rng=rng)
        per_stream = per_stream.reshape(n_samples, n, m, len(OBJECTIVES))
        agg = self.bank.aggregate(per_stream)  # (S, n, 5); ltc = compute only
        tx = np.array([self._tx_mean(xi) for xi in x])
        agg[..., 0] = agg[..., 0] + tx[None, :]
        return agg

    def _utility_of(self, y_flat: np.ndarray, rng) -> np.ndarray:
        if self.true_preference is not None:
            return self.true_preference.value(y_flat)
        assert self.learner is not None
        mean, var = self.learner.utility_with_uncertainty(y_flat)
        gen = as_generator(rng)
        return mean + np.sqrt(var) * gen.standard_normal(mean.shape)

    # -- SurrogateAdapter protocol ----------------------------------------
    def sample_benefit(self, x, n_samples, rng) -> np.ndarray:
        agg = self._decision_outcome_samples(x, n_samples, rng)
        s, n, k = agg.shape
        z = self._utility_of(agg.reshape(s * n, k), rng)
        return z.reshape(s, n)

    def update(self, x, observations) -> None:
        per_stream_x, per_stream_y = observations["per_stream"]
        # Held-out RMSE: score the *pre-update* bank on the batch it is
        # about to condition on — a genuine out-of-sample error.
        rmse = (
            holdout_rmse(self.bank, per_stream_x, per_stream_y)
            if telemetry.enabled
            else None
        )
        with telemetry.span("pamo.outcome_refit"):
            self.bank = self.bank.update(per_stream_x, per_stream_y)
        telemetry.counter("pamo.outcome_gp_refits")
        if telemetry.enabled:
            emit_outcome_gp_diagnostics(self.bank, phase="update", rmse=rmse)


class PaMO(SchedulerMixin):
    """Preference-aware Multi-Objective scheduler (the paper's system).

    All configuration after ``problem`` is keyword-only.

    Parameters
    ----------
    problem:
        The EVA problem instance.
    decision_maker:
        Oracle answering pairwise outcome comparisons (§4.2).
    acquisition:
        'qNEI' (default, the paper's choice), 'qEI', 'qUCB', or 'qSR'
        — the §5.1 PaMO variants — or a pre-built acquisition object.
    n_profile:
        Per-stream profiling samples for outcome-model fitting (U).
    n_outcome_space:
        Random decisions forming the comparison outcome space Y.
    n_init_comparisons, n_pref_queries:
        Random seed pairs and EUBO-selected queries (V).
    batch_size, delta, n_iterations, n_mc_samples:
        BO controls (b, δ, MaxIterNum, MC sample count).
    profile_noise:
        Relative measurement noise applied when profiling outcomes.
    checkpoint_path, checkpoint_every:
        When both are set, pickle a resumable checkpoint of the whole
        scheduler every ``checkpoint_every`` completed BO iterations
        (see :mod:`repro.resilience.checkpoint`).
    """

    method_name = "PaMO"

    def __init__(
        self,
        problem: EVAProblem,
        *,
        decision_maker: DecisionMaker,
        acquisition: str | AcquisitionFunction = "qNEI",
        n_profile: int = 60,
        n_outcome_space: int = 30,
        n_init_comparisons: int = 3,
        n_pref_queries: int = 15,
        batch_size: int = 4,
        delta: float = 0.02,
        n_iterations: int = 12,
        n_mc_samples: int = 32,
        n_pool: int = 24,
        profile_noise: float = 0.02,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        rng: RngLike = None,
    ) -> None:
        self.problem = problem
        self.decision_maker = decision_maker
        if isinstance(acquisition, str):
            acquisition = make_acquisition(acquisition, n_samples=n_mc_samples)
        self.acquisition = acquisition
        self.n_profile = int(check_positive("n_profile", n_profile))
        self.n_outcome_space = int(check_positive("n_outcome_space", n_outcome_space))
        self.n_init_comparisons = int(
            check_positive("n_init_comparisons", n_init_comparisons)
        )
        self.n_pref_queries = int(
            check_positive("n_pref_queries", n_pref_queries, strict=False)
        )
        self.batch_size = int(check_positive("batch_size", batch_size))
        self.delta = check_positive("delta", delta)
        self.n_iterations = int(check_positive("n_iterations", n_iterations))
        self.n_pool = int(check_positive("n_pool", n_pool))
        self.profile_noise = check_positive(
            "profile_noise", profile_noise, strict=False
        )
        self.checkpoint_path = checkpoint_path
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.checkpoint_every = int(checkpoint_every)
        self._rng = as_generator(rng)

        self.bank: OutcomeSurrogateBank | None = None
        self.learner: PreferenceLearner | None = None
        self._incumbent: tuple[float, np.ndarray] | None = None
        self._incumbent_outcome: np.ndarray | None = None
        self._last_observed: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Phase 1: outcome-function fitting
    def _per_stream_truth(self, pts: np.ndarray) -> np.ndarray:
        """Ground-truth per-stream outcomes at (r, s) points.

        ltc column holds the *compute* latency only (transmission is
        decision-dependent and added analytically downstream).
        """
        fns = self.problem.outcomes
        out = np.empty((pts.shape[0], len(OBJECTIVES)))
        for i, (r, s) in enumerate(pts):
            out[i, 0] = self.problem.profile.processing_time(r)
            out[i, 1] = fns.accuracy([r], [s])
            out[i, 2] = fns.network_mbps([r], [s])
            out[i, 3] = fns.computation_tflops([r], [s])
            out[i, 4] = fns.energy_watts([r], [s])
        return out

    def _profile_outcomes(self, pts: np.ndarray) -> np.ndarray:
        """Noisy profiling measurements (relative Gaussian noise)."""
        truth = self._per_stream_truth(pts)
        if self.profile_noise > 0:
            noise = self._rng.normal(1.0, self.profile_noise, truth.shape)
            truth = truth * noise
            truth[:, 1] = np.clip(truth[:, 1], 0.0, 1.0)
        return truth

    def fit_outcome_models(self) -> OutcomeSurrogateBank:
        """Algorithm 2, phase 1."""
        with telemetry.span("pamo.fit_outcomes"):
            space = self.problem.config_space
            all_cfg = space.all_configs()
            pts = all_cfg[self._rng.integers(0, all_cfg.shape[0], self.n_profile)]
            y = self._profile_outcomes(pts)
            telemetry.counter("pamo.profile_points", pts.shape[0])
            bounds = space.bounds()
            bank = OutcomeSurrogateBank(
                resolution_bounds=(bounds[0, 0], bounds[0, 1]),
                fps_bounds=(bounds[1, 0], bounds[1, 1]),
            )
            bank.fit(pts, y, rng=self._rng)
            telemetry.counter("pamo.outcome_gp_fits")
            self.bank = bank
            emit_outcome_gp_diagnostics(bank, phase="fit")
        return bank

    # ------------------------------------------------------------------
    # Phase 2: preference modeling
    def build_outcome_space(self) -> np.ndarray:
        """Outcome vectors of random decisions (the comparison space Y)."""
        ys = []
        for _ in range(self.n_outcome_space):
            r, s = self.problem.sample_decision(self._rng)
            ys.append(self.problem.evaluate(r, s))
        return np.stack(ys)

    def fit_preference_model(self) -> PreferenceLearner:
        """Algorithm 2, phase 2 (lines 5–11)."""
        with telemetry.span("pamo.fit_preference"):
            space = self.build_outcome_space()
            learner = PreferenceLearner(
                space,
                decision_maker=self.decision_maker,
                rng=self._rng,
            )
            learner.initialize(self.n_init_comparisons)
            learner.run(self.n_pref_queries)
            self.learner = learner
        return learner

    # ------------------------------------------------------------------
    # Phase 3: BO solving
    def _make_adapter(self) -> _BenefitSurrogate:
        assert self.bank is not None
        return _BenefitSurrogate(self.problem, self.bank, learner=self.learner)

    def _candidates(self, rng: np.random.Generator) -> np.ndarray:
        """Acquisition search pool: uniform, random, and local candidates.

        BoTorch optimizes the acquisition with gradient restarts over a
        continuous space; the discrete analog here mixes three candidate
        families so the pool covers both global structure and the
        incumbent's neighborhood:

        * *uniform decisions* — every stream at the same knob pair
          (these sweep the benefit landscape's main diagonal);
        * *random decisions* — independent knobs per stream;
        * *mutations* — the best observed decision with 1–2 streams'
          knobs re-rolled (local refinement).
        """
        m = self.problem.n_streams
        space = self.problem.config_space
        pool: list[np.ndarray] = []

        all_cfg = space.all_configs()
        n_uniform = min(len(all_cfg), max(4, self.n_pool // 3))
        for idx in rng.choice(len(all_cfg), size=n_uniform, replace=False):
            r, s = all_cfg[idx]
            pool.append(self.problem.encode(np.full(m, r), np.full(m, s)))

        n_random = max(4, self.n_pool // 3)
        for _ in range(n_random):
            r, s = self.problem.sample_decision(rng)
            pool.append(self.problem.encode(r, s))

        if self._incumbent is not None:
            n_mut = max(4, self.n_pool - len(pool))
            base_r, base_s = self.problem.decode(self._incumbent[1])
            for _ in range(n_mut):
                r = base_r.copy()
                s = base_s.copy()
                for i in rng.choice(m, size=min(m, int(rng.integers(1, 3))), replace=False):
                    r[i] = rng.choice(space.resolutions)
                    s[i] = rng.choice(space.fps_values)
                pool.append(self.problem.encode(r, s))

        uniq = np.unique(np.stack(pool), axis=0)
        # Search only the feasible region: decisions Algorithm 1 cannot
        # schedule under Const2 are invalid ("No feasible grouping
        # scheme") — evaluating them analytically would hide the
        # queueing delay they cause on the real system.
        feasible = np.array(
            [self.problem.is_feasible(*self.problem.decode(x)) for x in uniq]
        )
        if feasible.sum() >= 4:
            return uniq[feasible]
        # Tight instance (few feasible decisions): keep sampling random
        # decisions for feasible ones, anchored by the minimum
        # configuration, which is feasible in any schedulable system.
        extras: list[np.ndarray] = [
            self.problem.encode(
                np.full(m, min(space.resolutions)), np.full(m, min(space.fps_values))
            )
        ]
        attempts = 0
        while len(extras) + int(feasible.sum()) < 8 and attempts < 200:
            r, s = self.problem.sample_decision(rng)
            attempts += 1
            if self.problem.is_feasible(r, s):
                extras.append(self.problem.encode(r, s))
        return np.unique(np.vstack([uniq[feasible], np.stack(extras)]), axis=0)

    def _observe(self, x_batch: np.ndarray) -> dict:
        """Run a batch through Algorithm 1 + profiling (line 16)."""
        x_batch = np.atleast_2d(x_batch)
        telemetry.counter("pamo.observed_decisions", x_batch.shape[0])
        outcomes = []
        ps_x, ps_y = [], []
        for x in x_batch:
            r, s = self.problem.decode(x)
            outcomes.append(self.problem.evaluate(r, s))
            pts = np.column_stack([r, s])
            ps_x.append(pts)
            ps_y.append(self._profile_outcomes(pts))
        return {
            "x_batch": x_batch,
            "outcomes": np.stack(outcomes),
            "per_stream": (np.vstack(ps_x), np.vstack(ps_y)),
        }

    def _benefit_of(self, observations: dict) -> np.ndarray:
        """z = ĝ(y): benefit via the learned preference model (line 17)."""
        assert self.learner is not None
        return self.learner.utility(observations["outcomes"])

    def _track_incumbent(self, x_batch: np.ndarray, z_batch: np.ndarray) -> None:
        best = int(np.argmax(z_batch))
        if self._incumbent is None or z_batch[best] > self._incumbent[0]:
            self._incumbent = (float(z_batch[best]), x_batch[best].copy())

    def _emit_iteration_diagnostics(self, iteration: int) -> None:
        """BOLoop diagnostics hook: preference-model fidelity per iteration.

        The simulated decision maker exposes its hidden pricing rule, so
        Kendall-τ rank agreement against the truth is measurable here; a
        real deployment would omit the oracle and still get comparison
        counts.  PaMO+ has no learner — the helper no-ops.
        """
        emit_preference_diagnostics(
            self.learner,
            oracle=getattr(self.decision_maker, "preference", None),
            iteration=iteration,
        )

    def _refine_preference(self, outcomes: np.ndarray) -> None:
        """Algorithm 2 line 19: extend 𝒫 with comparisons at new outcomes.

        Each freshly observed outcome vector is compared (one decision-
        maker query each) against the incumbent's outcome, anchoring the
        preference model in the region the BO search is converging to.
        """
        if self.learner is None:
            return
        if self._incumbent_outcome is None:
            return
        self.learner.compare_against(outcomes, self._incumbent_outcome)

    def _save_checkpoint(self, state: BOLoopState) -> None:
        """BOLoop checkpoint hook: persist the whole scheduler + loop state."""
        assert self.checkpoint_path is not None
        import repro.resilience.checkpoint as ckpt_mod

        ckpt_mod.save_checkpoint(
            self.checkpoint_path,
            scheduler=self,
            bo_state=state,
            method=self.method_name,
            iteration=state.next_iteration - 1,
        )

    def _score_outcomes(self, outcomes: np.ndarray) -> np.ndarray:
        """Benefit of outcome vectors under this scheduler's utility head."""
        return self._benefit_of({"outcomes": np.atleast_2d(outcomes)})

    def _fallback_schedule(self, error: BaseException) -> OptimizationOutcome:
        """Last rung of the degradation ladder: a known-feasible decision.

        When the BO loop itself dies on a model pathology, fall back to
        the best decision already observed (if it is still feasible on
        the current topology) or to the minimum configuration, which is
        feasible in any schedulable system.  The run degrades — it does
        not crash.
        """
        telemetry.counter("pamo.bo_fallbacks")
        space = self.problem.config_space
        m = self.problem.n_streams
        source = "min_config"
        r = np.full(m, min(space.resolutions))
        s = np.full(m, min(space.fps_values))
        if self._incumbent is not None:
            inc_r, inc_s = self.problem.decode(self._incumbent[1])
            if self.problem.is_feasible(inc_r, inc_s):
                r, s = inc_r, inc_s
                source = "incumbent"
        assignment, _ = self.problem.schedule(r, s)
        outcome = self.problem.evaluate(r, s)
        z = float(self._score_outcomes(outcome)[0])
        telemetry.event(
            "fault.bo_fallback",
            source=source,
            error=f"{type(error).__name__}: {error}",
        )
        decision = ScheduleDecision(
            resolutions=r,
            fps=s,
            assignment=assignment,
            outcome=outcome,
            benefit=z,
            method=self.method_name,
        )
        return OptimizationOutcome(
            decision=decision,
            n_iterations=0,
            converged=False,
            history=[],
            n_dm_queries=self.decision_maker.n_queries,
            extras={
                "fallback": source,
                "error": f"{type(error).__name__}: {error}",
            },
        )

    def replan(self, new_problem: EVAProblem, *, reason: str = "") -> OptimizationOutcome:
        """Re-optimize after a topology change, warm-starting from history.

        The outcome-GP bank and preference learner are models over
        per-stream knobs and outcome vectors respectively — both
        topology-independent — so they carry over untouched.  Observed
        *benefits* do not: transmission latency depends on which servers
        exist, so prior observations are re-scored on ``new_problem``
        (and dropped entirely if the stream count changed, since the
        decision vector dimension differs).  Observations infeasible on
        the new topology are dropped.
        """
        with telemetry.span("pamo.replan"):
            old_problem = self.problem
            same_dim = new_problem.n_streams == old_problem.n_streams
            self.problem = new_problem
            warm_x = warm_z = None
            kept = dropped = 0
            if same_dim and self._last_observed is not None:
                keep_x, outs = [], []
                for x in np.unique(
                    np.atleast_2d(self._last_observed[0]), axis=0
                ):
                    r, s = new_problem.decode(x)
                    if new_problem.is_feasible(r, s):
                        keep_x.append(np.asarray(x, dtype=float))
                        outs.append(new_problem.evaluate(r, s))
                    else:
                        dropped += 1
                kept = len(keep_x)
                if kept:
                    warm_x = np.stack(keep_x)
                    warm_z = np.asarray(
                        self._score_outcomes(np.stack(outs)), dtype=float
                    )
            elif self._last_observed is not None:
                dropped = int(np.atleast_2d(self._last_observed[0]).shape[0])
            # The incumbent's benefit embeds the old topology's latency;
            # re-derive it from the re-scored warm set.
            self._incumbent = None
            self._incumbent_outcome = None
            self._last_observed = None
            if warm_z is not None and warm_z.size:
                best = int(np.argmax(warm_z))
                self._incumbent = (float(warm_z[best]), warm_x[best].copy())
                self._incumbent_outcome = np.asarray(outs[best], dtype=float)
            telemetry.counter("pamo.replans")
            telemetry.event(
                "fault.replan",
                reason=reason,
                n_servers_before=int(old_problem.n_servers),
                n_servers_after=int(new_problem.n_servers),
                n_streams_before=int(old_problem.n_streams),
                n_streams_after=int(new_problem.n_streams),
                observations_kept=kept,
                observations_dropped=dropped,
            )
            return self._optimize(warm_x=warm_x, warm_z=warm_z)

    def optimize(self, *, resume: BOLoopState | None = None) -> OptimizationOutcome:
        """Run all three phases; return the recommended decision.

        ``resume`` continues an interrupted run from a checkpointed
        :class:`~repro.bo.loop.BOLoopState` (see
        :mod:`repro.resilience.checkpoint`) — only meaningful on a
        scheduler object restored from the same checkpoint, where the
        models and RNG are in their at-checkpoint state.
        """
        with telemetry.span("pamo.optimize"):
            return self._optimize(resume=resume)

    def _optimize(
        self,
        resume: BOLoopState | None = None,
        warm_x: np.ndarray | None = None,
        warm_z: np.ndarray | None = None,
    ) -> OptimizationOutcome:
        if self.bank is None:
            self.fit_outcome_models()
        if self.learner is None and not isinstance(self, PaMOPlus):
            self.fit_preference_model()
        if self.learner is not None and self._incumbent_outcome is None:
            space = self.learner.outcome_space
            u = self.learner.utility(space)
            self._incumbent_outcome = space[int(np.argmax(u))].copy()
        adapter = self._make_adapter()

        def benefit_with_tracking(obs: dict) -> np.ndarray:
            # Refine ĝ with comparisons at the new outcomes (line 19),
            # then rescore so z reflects the refreshed model.
            self._refine_preference(obs["outcomes"])
            z = self._benefit_of(obs)
            self._track_incumbent(obs["x_batch"], z)
            best = int(np.argmax(z))
            if (
                self._incumbent_outcome is None
                or z[best] >= self._incumbent[0] - 1e-12
            ):
                self._incumbent_outcome = obs["outcomes"][best].copy()
            return z

        # The acquisition ladder only changes behavior when the primary
        # rung fails (its success path delegates verbatim, same RNG
        # stream), so seeded non-faulty runs are unaffected.
        acquisition = default_ladder(self.acquisition)
        checkpointing = (
            self.checkpoint_path is not None and self.checkpoint_every > 0
        )
        loop = BOLoop(
            adapter,
            observe=self._observe,
            benefit_of=benefit_with_tracking,
            candidates=self._candidates,
            acquisition=acquisition,
            batch_size=self.batch_size,
            delta=self.delta,
            n_iterations=self.n_iterations,
            on_iteration=self._emit_iteration_diagnostics,
            checkpoint_every=self.checkpoint_every if checkpointing else 0,
            on_checkpoint=self._save_checkpoint if checkpointing else None,
            rng=self._rng,
        )
        try:
            with telemetry.span("pamo.bo_loop"):
                res = loop.run(initial_x=warm_x, initial_z=warm_z, resume=resume)
        except (
            np.linalg.LinAlgError,
            FloatingPointError,
            InfeasibleScheduleError,
            RuntimeError,
        ) as exc:
            return self._fallback_schedule(exc)
        self._last_observed = (res.observed_x, res.observed_z)
        r, s = self.problem.decode(res.best_x)
        assignment, _ = self.problem.schedule(r, s)
        outcome = self.problem.evaluate(r, s)
        decision = ScheduleDecision(
            resolutions=r,
            fps=s,
            assignment=assignment,
            outcome=outcome,
            benefit=res.best_z,
            method=self.method_name,
        )
        return OptimizationOutcome(
            decision=decision,
            n_iterations=res.n_iterations,
            converged=res.converged,
            history=res.history_z,
            n_dm_queries=self.decision_maker.n_queries,
        )


class PaMOPlus(PaMO):
    """PaMO with the *true* preference function (§5.1's upper bound).

    Skips preference learning entirely; the BO loop scores observations
    with the ground-truth benefit.  Needs the true preference exposed
    by the decision maker.
    """

    method_name = "PaMO+"

    def _make_adapter(self) -> _BenefitSurrogate:
        assert self.bank is not None
        return _BenefitSurrogate(
            self.problem,
            self.bank,
            true_preference=self.decision_maker.preference,
        )

    def _benefit_of(self, observations: dict) -> np.ndarray:
        return self.decision_maker.preference.value(observations["outcomes"])
