"""Incremental planner: Theorem-3 invariants, rollback, exactness."""

import numpy as np
import pytest

from repro.core.problem import EVAProblem
from repro.sched.theory import const2_satisfied
from repro.serve import IncrementalPlanner, approx_preference


def _problem(n_streams=6, n_servers=4, seed=0):
    rng = np.random.default_rng(seed)
    return EVAProblem(
        n_streams,
        rng.choice([10.0, 15.0, 20.0, 25.0], size=n_servers),
        textures=rng.uniform(0.7, 1.3, size=n_streams),
    )


def _planner(problem):
    return IncrementalPlanner.for_problem(
        problem, preference=approx_preference(problem)
    )


def _schedulable(planner):
    streams, assignment = planner.as_periodic_streams()
    return const2_satisfied(streams, assignment)


class TestSolveAll:
    def test_admits_everyone_on_small_problem(self):
        problem = _problem()
        planner = _planner(problem)
        textures = {i: float(t) for i, t in enumerate(problem.textures)}
        stats = planner.solve_all(textures)
        assert stats["admitted"] == problem.n_streams
        assert stats["rejected"] == []
        assert _schedulable(planner)

    def test_outcome_matches_problem_evaluate(self):
        problem = _problem()
        planner = _planner(problem)
        planner.solve_all({i: float(t) for i, t in enumerate(problem.textures)})
        sids, r, s, _, got, _ = planner.placement()
        assert sids == list(range(problem.n_streams))
        # acc/net/com/eng depend only on the knob configs, so they must
        # agree with the closed forms exactly.  Latency (index 0) also
        # depends on the planner's split/placement, which may differ
        # from the problem's own Algorithm-1 run, so just sanity-check.
        expected = problem.evaluate(r, s)
        np.testing.assert_allclose(got[1:], expected[1:], rtol=1e-9)
        assert got[0] > 0.0

    def test_solve_all_is_deterministic(self):
        problem = _problem(seed=3)
        textures = {i: float(t) for i, t in enumerate(problem.textures)}
        a = _planner(problem)
        a.solve_all(textures)
        b = _planner(problem)
        b.solve_all(textures)
        pa, pb = a.placement(), b.placement()
        assert pa.resolutions.tolist() == pb.resolutions.tolist()
        assert pa.fps.tolist() == pb.fps.tolist()
        assert pa.servers == pb.servers


class TestMutations:
    @pytest.fixture
    def planner(self):
        problem = _problem()
        planner = _planner(problem)
        planner.solve_all({i: float(t) for i, t in enumerate(problem.textures)})
        return planner

    def test_add_then_remove_restores_sums(self, planner):
        before = (planner.acc_sum, planner.net_sum, planner.com_sum,
                  planner.eng_sum, planner.ptime_sum, planner.bits_sum)
        config = planner.admit(99, 1.0)
        assert config is not None
        assert 99 in planner.entries
        assert _schedulable(planner)
        assert planner.remove_stream(99)
        after = (planner.acc_sum, planner.net_sum, planner.com_sum,
                 planner.eng_sum, planner.ptime_sum, planner.bits_sum)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_remove_unknown_stream_is_noop(self, planner):
        n = len(planner.entries)
        assert not planner.remove_stream(12345)
        assert len(planner.entries) == n

    def test_set_config_rolls_back_on_misfit(self, planner):
        sid = min(planner.entries)
        entry = planner.entries[sid]
        before = (entry.resolution, entry.fps)
        # The top-ranked config on a loaded schedule typically doesn't
        # fit; whether it does or not, the entry must stay consistent.
        ranked = planner.rank_configs(entry.texture)
        ok = planner.set_config(sid, *ranked[0])
        entry = planner.entries[sid]
        if ok:
            assert (entry.resolution, entry.fps) == ranked[0]
        else:
            assert (entry.resolution, entry.fps) == before
        assert _schedulable(planner)

    def test_server_down_repairs_or_evicts(self, planner):
        stats = planner.server_down(0)
        assert not planner.alive[0]
        assert 0 not in [s for subs in planner.placement().servers.values()
                        for s in subs]
        assert set(stats) >= {"migrated", "degraded", "evicted"}
        assert _schedulable(planner)
        # Evicted streams are really gone from the schedule.
        for sid in stats["evicted"]:
            assert sid not in planner.entries

    def test_server_down_then_up_round_trip(self, planner):
        planner.server_down(1)
        assert planner.server_up(1)
        assert planner.alive[1]
        assert not planner.server_up(1)  # already up
        assert _schedulable(planner)

    def test_bandwidth_factor_shapes_effective_bw(self, planner):
        nominal = planner.effective_bw().copy()
        planner.set_bandwidth_factor(2, 0.5)
        eff = planner.effective_bw()
        assert eff[2] == pytest.approx(nominal[2] * 0.5)
        with pytest.raises(ValueError):
            planner.set_bandwidth_factor(2, 0.0)

    def test_churn_preserves_schedulability(self, planner):
        planner.set_bandwidth_factor(0, 0.4)
        planner.server_down(3)
        planner.admit(50, 1.2)
        planner.remove_stream(min(planner.entries))
        planner.server_up(3)
        assert _schedulable(planner)


def _snapshot(planner):
    """Groups, entries and every running sum, floats compared exactly."""
    groups = [
        (g.total_p, g.rate, g.pmin, g.aligned, dict(g.periods),
         [(m.owner, m.period) for m in g.members])
        for g in planner.groups
    ]
    entries = {
        sid: (e.resolution, e.fps, e.acc, e.net, e.com, e.eng, e.ptime,
              e.bits, [id(sub) for sub in e.subs])
        for sid, e in planner.entries.items()
    }
    sums = (planner.acc_sum, planner.net_sum, planner.com_sum,
            planner.eng_sum, planner.ptime_sum, planner.bits_sum)
    return groups, entries, sums


class TestKnobPairValidation:
    """A knob pair outside the config space raises before any group moves."""

    def test_add_stream_leaves_no_orphan_sub(self):
        planner = IncrementalPlanner([10.0, 20.0])
        before = _snapshot(planner)
        with pytest.raises(ValueError, match="not a knob pair"):
            planner.add_stream(0, 1.0, 700.0, 3.0)
        assert _snapshot(planner) == before
        assert all(not g.members for g in planner.groups)
        assert planner.entries == {}

    def test_add_stream_on_a_loaded_schedule(self):
        problem = _problem()
        planner = _planner(problem)
        planner.solve_all({i: float(t) for i, t in enumerate(problem.textures)})
        before = _snapshot(planner)
        with pytest.raises(ValueError, match="not a knob pair"):
            planner.add_stream(99, 1.0, 700.0, 3.0)
        assert _snapshot(planner) == before

    def test_set_config_keeps_entry_and_sums(self):
        problem = _problem()
        planner = _planner(problem)
        planner.solve_all({i: float(t) for i, t in enumerate(problem.textures)})
        sid = min(planner.entries)
        before = _snapshot(planner)
        outcome = planner.placement().outcome
        with pytest.raises(ValueError, match="not a knob pair"):
            planner.set_config(sid, 700.0, 3.0)
        assert _snapshot(planner) == before
        assert len(planner.entries[sid].subs) > 0
        np.testing.assert_array_equal(planner.placement().outcome, outcome)
        assert _schedulable(planner)
