"""SchedulerService: determinism, cache invalidation, counters, churn."""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.core import make_preference
from repro.core.problem import EVAProblem
from repro.obs import telemetry
from repro.serve import (
    ChurnProfile,
    DriftDetector,
    RegistryFactory,
    SchedulerService,
    ServeEvent,
    approx_preference,
    generate_load,
)


def _problem(n_streams=6, n_servers=4, seed=0):
    rng = np.random.default_rng(seed)
    return EVAProblem(
        n_streams,
        rng.choice([10.0, 15.0, 20.0, 25.0], size=n_servers),
        textures=rng.uniform(0.7, 1.3, size=n_streams),
    )


def _service(problem=None, **kw):
    problem = problem or _problem()
    return SchedulerService(
        problem, preference=approx_preference(problem), **kw
    )


def _signatures(service):
    return [d.signature() for d in service.decisions]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


class TestLifecycle:
    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError, match="epoch_s"):
            _service(epoch_s=0.0)
        with pytest.raises(ValueError, match="reoptimize_every"):
            _service(reoptimize_every=-1)

    def test_start_is_warmup_full_solve(self):
        svc = _service()
        d = svc.start()
        assert d.epoch == 0
        assert d.full_solve
        assert d.cache_hits == 0
        assert d.stream_ids == list(range(6))
        assert d.benefit is not None

    def test_double_start_raises(self):
        svc = _service()
        svc.start()
        with pytest.raises(RuntimeError, match="already started"):
            svc.start()

    def test_run_autostarts(self):
        svc = _service()
        svc.submit([ServeEvent(time=0.5, kind="stream_leave", target=0)])
        svc.run()
        assert svc.started
        assert svc.decisions[0].epoch == 0

    def test_epoch_clock_batches_same_epoch_events(self):
        svc = _service(epoch_s=2.0)
        svc.submit(
            [
                ServeEvent(time=0.2, kind="stream_leave", target=0),
                ServeEvent(time=1.8, kind="stream_leave", target=1),
                ServeEvent(time=2.5, kind="stream_leave", target=2),
            ]
        )
        made = svc.run()
        # warm-up happens in run(); the two t<2 events share epoch 1.
        assert [d.epoch for d in made] == [1, 2]
        assert len(made[0].events) == 2

    def test_summary_reports_latency_and_counts(self):
        svc = _service()
        svc.start()
        svc.submit([ServeEvent(time=0.5, kind="drift")])
        svc.run()
        s = svc.summary()
        assert s["epochs"] == 2
        assert s["full_solves"] == 2  # warm-up + drift
        assert s["decision_p95_s"] >= s["decision_p50_s"] >= 0.0
        assert s["n_streams"] == 6


class TestDeterminism:
    PROFILE = ChurnProfile(
        hours=0.05,
        arrivals_per_hour=400.0,
        departures_per_hour=300.0,
        drifts_per_hour=60.0,
        flaps_per_hour=30.0,
    )

    def _run(self, log, *, split_at=None, checkpoint_path=None):
        svc = _service(_problem())
        svc.start()
        svc.submit(log)
        if split_at is None:
            svc.run()
            return _signatures(svc)
        svc.run(max_epochs=split_at)
        svc.save_checkpoint(checkpoint_path)
        resumed = SchedulerService.resume(checkpoint_path)
        resumed.run()
        return _signatures(resumed)

    def test_same_seed_same_decisions(self):
        log = generate_load(6, 4, profile=self.PROFILE, seed=9)
        assert len(log) > 5
        assert self._run(log) == self._run(log)

    def test_signature_ignores_latency(self):
        svc = _service()
        d = svc.start()
        sig = d.signature()
        d.latency_s = 123.0
        assert d.signature() == sig

    def test_checkpoint_resume_is_bit_identical(self, tmp_path):
        log = generate_load(6, 4, profile=self.PROFILE, seed=9)
        straight = self._run(log)
        resumed = self._run(
            log, split_at=3, checkpoint_path=tmp_path / "serve.ckpt"
        )
        assert len(straight) > 4
        assert resumed == straight

    def test_resumes_a_checkpoint_without_the_derived_caches(self, tmp_path):
        """A checkpoint written before the planner's per-texture θ_bit
        cache, its fit-bound scale, its knob-period array and read-out
        columns, the last read-out, the decisions' server column, the
        service's last scored read-out, the admission floor and the
        preference's cached normalization existed holds none of them;
        each derives on first use, bit-identically."""
        import pickle

        log = generate_load(6, 4, profile=self.PROFILE, seed=9)
        straight = self._run(log)
        svc = _service(_problem())
        svc.start()
        svc.submit(log)
        svc.run(max_epochs=3)
        assert svc.planner._terms_by_texture
        derived = {"_terms_by_texture", "_top", "_cand_period", "_cols", "_readout"}
        svc.planner._cand_period  # noqa: B018 - derive it, to drop it below
        for name in derived:
            svc.planner.__dict__.pop(name)
        for decision in svc.decisions:
            assert decision.server_col is not None
            decision.__dict__.pop("server_col")
        for pref in (svc.preference, svc.planner.preference):
            pref.__dict__.pop("_scale", None)
        svc.__dict__.pop("_scored")
        svc.admission.__dict__.pop("_floor", None)
        path = tmp_path / "serve.ckpt"
        svc.save_checkpoint(path)
        held = pickle.loads(path.read_bytes())["scheduler"]
        assert not derived & set(vars(held.planner))
        assert not any("server_col" in vars(d) for d in held.decisions)
        assert "_scale" not in vars(held.preference)
        assert "_scored" not in vars(held) and "_floor" not in vars(held.admission)
        resumed = SchedulerService.resume(path)
        resumed.run()
        assert _signatures(resumed) == straight

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        import pickle

        path = tmp_path / "bogus.ckpt"
        path.write_bytes(pickle.dumps({"meta": {"kind": "bo"}}))
        with pytest.raises((ValueError, KeyError, TypeError, pickle.PickleError)):
            SchedulerService.resume(path)

    @pytest.mark.parametrize("stale", ["removed_class", "renamed_slot"])
    def test_resume_rejects_older_layout_clearly(self, tmp_path, stale):
        """Checkpoints from before the engine's group moved to
        ``sched.grouping`` name a deleted class (``engine._Group``) and
        a renamed ``_Sub`` slot (``ptime``); both fail with ValueError."""
        from repro.resilience.checkpoint import save_checkpoint
        from repro.serve import engine

        class _OldSub:
            def __reduce__(self):
                return (object.__new__, (engine._Sub,), (None, {"ptime": 0.01}))

        path = tmp_path / "old.ckpt"
        if stale == "renamed_slot":
            save_checkpoint(path, scheduler=_OldSub(), bo_state=None, kind="serve")
        else:
            path.write_bytes(b"crepro.serve.engine\n_Group\n.")  # GLOBAL opcode
        with pytest.raises(ValueError, match="incompatible build"):
            SchedulerService.resume(path)


class TestCacheInvalidation:
    """Each delta kind invalidates exactly the decisions it touches."""

    def _one(self, event, **kw):
        svc = _service(**kw)
        svc.start()
        svc.submit([event])
        (d,) = svc.run()
        return svc, d

    def test_join_touches_only_the_joiner(self):
        svc, d = self._one(
            ServeEvent(time=0.5, kind="stream_join", target=50, value=1.0)
        )
        assert not d.full_solve
        assert d.solved + len(d.rejected) == 1
        # every pre-existing decision was served from cache
        assert d.cache_hits == len(svc.planner.entries) - d.solved

    def test_leave_touches_only_the_leaver(self):
        svc, d = self._one(ServeEvent(time=0.5, kind="stream_leave", target=0))
        assert not d.full_solve
        assert 0 not in svc.planner.entries
        assert d.cache_hits == len(svc.planner.entries)

    def test_bandwidth_drift_keeps_all_configs_cached(self):
        svc, d = self._one(
            ServeEvent(time=0.5, kind="bandwidth_drift", target=1, value=0.5)
        )
        assert not d.full_solve
        assert d.cache_hits == len(svc.planner.entries)
        assert svc.planner.effective_bw()[1] == pytest.approx(
            svc.planner.nominal_bw[1] * 0.5
        )

    def test_server_down_invalidates_only_evicted(self):
        svc, d = self._one(ServeEvent(time=0.5, kind="server_down", target=0))
        assert not d.full_solve
        assert not svc.planner.alive[0]
        assert d.cache_hits == len(svc.planner.entries)

    def test_server_up_keeps_cache(self):
        svc = _service()
        svc.start()
        svc.submit(
            [
                ServeEvent(time=0.5, kind="server_down", target=0),
                ServeEvent(time=1.5, kind="server_up", target=0),
            ]
        )
        _, d = svc.run()
        assert not d.full_solve
        assert svc.planner.alive[0]
        assert d.cache_hits == len(svc.planner.entries)

    def test_drift_invalidates_everything(self):
        svc, d = self._one(ServeEvent(time=0.5, kind="drift"))
        assert d.full_solve
        assert d.cache_hits == 0
        assert d.solved == len(svc.planner.entries)

    def test_reoptimize_every_forces_full_solves(self):
        svc = _service(reoptimize_every=1)
        svc.start()
        svc.submit(
            [
                ServeEvent(time=0.5, kind="stream_leave", target=0),
                ServeEvent(time=1.5, kind="stream_leave", target=1),
            ]
        )
        made = svc.run()
        assert all(d.full_solve for d in made)


class TestCounters:
    def test_serve_counters_accumulate(self):
        telemetry.reset()
        telemetry.enable(None)
        svc = _service()
        svc.start()
        svc.submit(
            [
                ServeEvent(time=0.5, kind="stream_join", target=77, value=1.0),
                ServeEvent(time=1.5, kind="drift"),
            ]
        )
        svc.run()
        counters = telemetry.report()["counters"]
        assert counters["serve.replans"] == 3
        assert counters["serve.full_solves"] == 2
        assert counters["serve.events"] == 2
        assert counters.get("serve.cache_hits", 0) >= 1
        assert counters["serve.solved"] >= svc.problem.n_streams

    def test_decision_events_logged(self):
        from repro.obs.sinks import MemorySink

        sink = MemorySink()
        telemetry.reset()
        telemetry.enable(sink)
        svc = _service()
        svc.start()
        records = [r for r in sink.records if r.get("event") == "serve.decision"]
        assert len(records) == 1
        assert records[0]["full_solve"] is True
        assert records[0]["n_streams"] == 6


class TestFactoryPath:
    def test_registry_factory_runs_warmup_and_drift(self):
        problem = _problem()
        factory = RegistryFactory(
            "greedy", approx_preference(problem), seed=0
        )
        svc = SchedulerService(
            problem,
            preference=approx_preference(problem),
            scheduler_factory=factory,
        )
        svc.start()
        assert svc.deployed_decision().n_streams == problem.n_streams
        svc.submit([ServeEvent(time=0.5, kind="drift")])
        (d,) = svc.run()
        assert d.full_solve
        assert d.cache_hits == 0

    def test_deployed_decision_follows_churn(self):
        """In the event loop the engine state is what is deployed, so the
        deployed decision tracks joins and leaves after the warm-up
        batch solve."""
        problem = _problem(n_streams=4)
        svc = SchedulerService(
            problem,
            preference=approx_preference(problem),
            scheduler_factory=RegistryFactory(
                "greedy", approx_preference(problem), seed=0
            ),
        )
        svc.start()
        svc.submit(
            [
                ServeEvent(time=0.5, kind="stream_join", target=50, value=1.0),
                ServeEvent(time=1.5, kind="stream_leave", target=0),
                ServeEvent(time=2.5, kind="stream_leave", target=1),
            ]
        )
        svc.run()
        assert len(svc.planner.entries) == 3
        assert svc.deployed_decision().n_streams == 3

    def test_factory_sees_churned_topology(self):
        """The event loop builds its scheduler once, at warm-up, and a
        drift solve replans that scheduler on the live topology."""
        from repro.serve.greedy import GreedyScheduler

        problem = _problem()
        seen = []

        def factory(prob, epoch=0):
            seen.append(prob)
            return GreedyScheduler(prob, preference=approx_preference(problem))

        svc = SchedulerService(
            problem, preference=approx_preference(problem),
            scheduler_factory=factory,
        )
        svc.start()
        assert seen == [problem]  # pristine topology: original object
        warm = svc.scheduler
        svc.submit(
            [
                ServeEvent(time=0.5, kind="stream_leave", target=0),
                ServeEvent(time=1.5, kind="drift"),
            ]
        )
        svc.run()
        assert len(seen) == 1  # the drift solve built no new scheduler
        assert svc.scheduler is warm
        assert svc.scheduler.problem is not problem
        assert svc.scheduler.problem.n_streams == problem.n_streams - 1
        assert problem.n_streams == 6  # the original object is untouched


class TestDriftDetector:
    def test_no_drift_on_match(self):
        d = DriftDetector(rel_threshold=0.2, patience=2)
        y = np.ones(5)
        assert not d.update(y, y * 1.05)
        assert not d.update(y, y * 0.95)

    def test_drift_after_patience(self):
        d = DriftDetector(rel_threshold=0.2, patience=2)
        y = np.ones(5)
        assert not d.update(y, y * 2.0)  # strike 1
        assert d.update(y, y * 2.0)  # strike 2 -> fire

    def test_strikes_reset_on_good_epoch(self):
        d = DriftDetector(rel_threshold=0.2, patience=2)
        y = np.ones(5)
        d.update(y, y * 2.0)
        d.update(y, y)  # resets
        assert not d.update(y, y * 2.0)

    def test_fire_resets_counter(self):
        d = DriftDetector(rel_threshold=0.2, patience=1)
        y = np.ones(5)
        assert d.update(y, y * 2.0)
        assert not d.update(y, y)

    def test_deviation_metric(self):
        d = DriftDetector()
        assert d.deviation(np.array([1.0, 2.0]), np.array([1.0, 3.0])) == pytest.approx(0.5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DriftDetector(rel_threshold=0.0)
        with pytest.raises(ValueError):
            DriftDetector(patience=0)


class TestRunEpochs:
    """The fixed-epoch monitoring loop: observe, detect drift, re-plan."""

    @pytest.fixture
    def problem(self):
        return EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0])

    @staticmethod
    def _monitor(problem, calls=None):
        pref = make_preference(problem)

        def factory(prob, epoch):
            if calls is not None:
                calls.append(epoch)
            return RandomSearch(
                prob, benefit_fn=pref.value, n_iterations=10, rng=epoch
            )

        return SchedulerService(
            problem, preference=pref, scheduler_factory=factory
        )

    @staticmethod
    def _latency_triples_from(start):
        def environment(decision, epoch):
            y = decision.outcome.copy()
            if epoch >= start:
                y[0] *= 3.0  # e.g. link degradation
            return y

        return environment

    def test_stable_environment_never_reoptimizes(self, problem):
        ticks = self._monitor(problem).run_epochs(
            5, environment=lambda d, e: d.outcome  # exactly as expected
        )
        assert [t.epoch for t in ticks] == list(range(5))
        assert not any(t.reoptimized for t in ticks)

    def test_drift_triggers_reoptimization(self, problem):
        ticks = self._monitor(problem).run_epochs(
            6,
            environment=self._latency_triples_from(2),
            detector=DriftDetector(rel_threshold=0.5, patience=2),
        )
        assert sum(t.reoptimized for t in ticks) >= 1

    def test_ticks_record_deviations(self, problem):
        ticks = self._monitor(problem).run_epochs(
            3, environment=lambda d, e: d.outcome * 1.1
        )
        for t in ticks:
            assert t.deviation == pytest.approx(0.1, abs=1e-9)

    def test_invalid_epochs(self, problem):
        with pytest.raises(ValueError, match="n_epochs"):
            self._monitor(problem).run_epochs(
                0, environment=lambda d, e: d.outcome
            )

    def test_decision_deployed_after_run(self, problem):
        svc = self._monitor(problem)
        svc.run_epochs(1, environment=lambda d, e: d.outcome)
        decision = svc.deployed_decision()
        assert decision is svc.last_decision
        assert decision.resolutions.shape == (3,)

    def test_fresh_scheduler_per_solve(self, problem):
        """Warm-up and every drift build a new scheduler for their
        epoch — the factory picks that epoch's problem."""
        calls = []
        svc = self._monitor(problem, calls)
        ticks = svc.run_epochs(
            8,
            environment=self._latency_triples_from(2),
            detector=DriftDetector(rel_threshold=0.5, patience=2),
        )
        replans = [t.epoch for t in ticks if t.reoptimized]
        assert replans
        assert calls == [0] + replans
        assert len(calls) == 1 + sum(t.reoptimized for t in ticks)


class TestChurnAtScale:
    def test_incremental_only_after_warmup(self):
        """The ISSUE acceptance shape, scaled to test-suite budget:
        seeded churn completes with exactly the warm-up full solve."""
        problem = _problem(n_streams=120, n_servers=12, seed=2)
        profile = ChurnProfile(
            hours=0.2,
            arrivals_per_hour=600.0,
            departures_per_hour=600.0,
            drifts_per_hour=80.0,
            flaps_per_hour=10.0,
        )
        log = generate_load(120, 12, profile=profile, seed=11)
        assert len(log) > 200
        svc = _service(problem)
        svc.start()
        svc.submit(log)
        made = svc.run()
        assert len(made) > 50
        full = [d for d in svc.decisions if d.full_solve]
        assert [d.epoch for d in full] == [0]  # warm-up only
        s = svc.summary()
        assert s["full_solves"] == 1
        assert s["cache_hits"] > 0
        assert s["decision_p95_s"] > 0.0
        assert s["benefit_last"] is not None
