"""Degradation ladder and PaMO's BO fallback."""

import numpy as np
import pytest

from repro.bo.acquisition import (
    QUCB,
    FallbackAcquisition,
    RandomDesignAcquisition,
    default_ladder,
    make_acquisition,
)
from repro.bo.loop import BOLoop
from repro.core import EVAProblem, PaMO, make_preference
from repro.obs import MemorySink, telemetry
from repro.pref import DecisionMaker


class _BrokenAcquisition:
    """A rung whose surrogate has gone numerically toxic."""

    name = "broken"
    n_samples = 4
    last_batch_value = 0.0

    def evaluate(self, sampler, candidates, **kw):
        raise np.linalg.LinAlgError("posterior collapsed")

    def select_batch(self, sampler, pool, batch_size, **kw):
        raise np.linalg.LinAlgError("posterior collapsed")


class TestRandomDesignAcquisition:
    def test_registered(self):
        assert isinstance(make_acquisition("random"), RandomDesignAcquisition)

    def test_selects_valid_sorted_unique_batch(self):
        acq = RandomDesignAcquisition()
        pool = np.arange(20, dtype=float).reshape(10, 2)
        idx = acq.select_batch(None, pool, 4, rng=np.random.default_rng(0))
        assert idx.shape == (4,)
        assert len(set(idx.tolist())) == 4
        assert np.all(idx == np.sort(idx))
        assert np.all((idx >= 0) & (idx < 10))

    def test_seed_deterministic(self):
        acq = RandomDesignAcquisition()
        pool = np.arange(30, dtype=float).reshape(15, 2)
        a = acq.select_batch(None, pool, 5, rng=np.random.default_rng(7))
        b = acq.select_batch(None, pool, 5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_caller_errors(self):
        acq = RandomDesignAcquisition()
        pool = np.zeros((3, 2))
        with pytest.raises(ValueError, match="batch_size"):
            acq.select_batch(None, pool, 0)
        with pytest.raises(ValueError, match="pool"):
            acq.select_batch(None, pool, 5)


class TestFallbackAcquisition:
    def test_falls_through_to_random_rung(self):
        ladder = FallbackAcquisition(_BrokenAcquisition())
        pool = np.arange(16, dtype=float).reshape(8, 2)
        telemetry.reset()
        sink = MemorySink()
        telemetry.enable(sink)
        try:
            idx = ladder.select_batch(
                None, pool, 3, rng=np.random.default_rng(0)
            )
            counters = telemetry.report()["counters"]
            events = [r for r in sink.records if r.get("event") == "fault.acq_fallback"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert idx.shape == (3,)
        assert ladder.active_rung == "random"
        assert counters["bo.acq_fallbacks"] == 1
        assert events and events[0]["failed_rung"] == "broken"

    def test_caller_errors_still_surface(self):
        ladder = FallbackAcquisition(_BrokenAcquisition())
        with pytest.raises(ValueError, match="pool"):
            ladder.select_batch(None, np.zeros((2, 2)), 5)

    def test_healthy_primary_not_disturbed(self):
        primary = RandomDesignAcquisition()
        ladder = FallbackAcquisition(primary)
        pool = np.arange(16, dtype=float).reshape(8, 2)
        direct = primary.select_batch(None, pool, 3, rng=np.random.default_rng(3))
        laddered = ladder.select_batch(None, pool, 3, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(direct, laddered)

    def test_default_ladder_is_idempotent_and_appends_qucb(self):
        primary = make_acquisition("qnei", n_samples=8)
        ladder = default_ladder(primary)
        assert isinstance(ladder, FallbackAcquisition)
        assert default_ladder(ladder) is ladder
        names = [r.name for r in ladder.rungs]
        assert names == ["qNEI", "qUCB", "random"]
        # a qUCB primary doesn't get a redundant qUCB rung
        assert [r.name for r in default_ladder(QUCB(n_samples=4)).rungs] == [
            "qUCB",
            "random",
        ]


class TestPaMOFallback:
    def _pamo(self, **kw):
        problem = EVAProblem(n_streams=3, bandwidths_mbps=[10.0, 20.0, 30.0])
        pref = make_preference(problem)
        defaults = dict(
            n_profile=40,
            n_outcome_space=20,
            n_init_comparisons=3,
            n_pref_queries=4,
            batch_size=2,
            n_iterations=3,
            n_pool=12,
            rng=0,
        )
        defaults.update(kw)
        return problem, PaMO(problem, decision_maker=DecisionMaker(pref, rng=0), **defaults)

    def test_bo_collapse_degrades_to_heuristic_schedule(self, monkeypatch):
        problem, pamo = self._pamo()

        def _explode(self, **kw):
            raise np.linalg.LinAlgError("bank collapsed")

        monkeypatch.setattr(BOLoop, "run", _explode)
        telemetry.reset()
        telemetry.enable(MemorySink())
        try:
            out = pamo.optimize()
            counters = telemetry.report()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert out.extras.get("fallback") in ("incumbent", "min_config")
        assert problem.is_feasible(out.decision.resolutions, out.decision.fps)
        assert counters["pamo.bo_fallbacks"] == 1
