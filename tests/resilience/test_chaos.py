"""Chaos harness: degraded problems, epoch replay, and the acceptance run."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import EVAProblem, PaMO, make_preference
from repro.obs import MemorySink, telemetry
from repro.pref import DecisionMaker
from repro.resilience import ChaosRunner, faults
from repro.resilience.chaos import degraded_problem
from repro.serve import EventLog, ServeEvent


def _problem(n_streams=4, bandwidths=(10.0, 15.0, 20.0, 30.0)):
    return EVAProblem(n_streams=n_streams, bandwidths_mbps=list(bandwidths))


class TestDegradedProblem:
    def test_removes_dead_servers_and_scales_bandwidth(self):
        prob = _problem()
        out = degraded_problem(
            prob,
            alive=[True, False, True, True],
            bw_factor=[1.0, 1.0, 0.5, 1.0],
            textures=prob.textures,
        )
        assert out.n_servers == 3
        assert out.bandwidths_mbps == pytest.approx([10.0, 10.0, 30.0])
        assert out.n_streams == 4

    def test_drops_departed_streams(self):
        prob = _problem()
        out = degraded_problem(
            prob,
            alive=[True] * 4,
            bw_factor=[1.0] * 4,
            textures=[0.5, 2.0],
        )
        assert out.n_streams == 2
        assert out.textures.tolist() == [0.5, 2.0]
        assert out.outcomes is prob.outcomes

    def test_none_when_nothing_survives(self):
        prob = _problem()
        assert (
            degraded_problem(
                prob, alive=[False] * 4, bw_factor=[1.0] * 4, textures=[1.0]
            )
            is None
        )
        assert (
            degraded_problem(
                prob, alive=[True] * 4, bw_factor=[1.0] * 4, textures=[]
            )
            is None
        )

    def test_validates_lengths(self):
        prob = _problem()
        with pytest.raises(ValueError):
            degraded_problem(
                prob, alive=[True], bw_factor=[1.0] * 4, textures=prob.textures
            )


class TestChaosAcceptance:
    def test_pamo_survives_one_of_four_server_crash(self):
        """The ISSUE acceptance run: crash 1 of 4 servers mid-run.

        PaMO must finish, replan onto the survivors, keep the schedule
        feasible (Const1/Const2), and the recovery epoch must restore
        the full topology.
        """
        prob = _problem()
        pref = make_preference(prob)
        plan = faults.from_specs(["crash:1@0.5", "recover:1@2.0"])

        def factory(p):
            return PaMO(
                p,
                decision_maker=DecisionMaker(pref, rng=0),
                n_profile=40,
                n_outcome_space=20,
                n_init_comparisons=3,
                n_pref_queries=6,
                batch_size=2,
                n_iterations=4,
                n_pool=12,
                rng=0,
            )

        telemetry.reset()
        telemetry.enable(MemorySink())
        try:
            report = ChaosRunner(prob, plan, factory, preference=pref).run()
            counters = telemetry.report()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()

        assert len(report.epochs) == 2
        crash, recover = report.epochs
        assert crash.n_servers == 3 and recover.n_servers == 4
        assert report.all_feasible
        # PaMO replans in-place (warm start) instead of re-optimizing.
        assert crash.replanned and recover.replanned
        assert counters.get("pamo.replans", 0) == 2
        # Every placement lands on a surviving server.
        assignment = np.asarray(crash.outcome.decision.assignment)
        assert np.all((assignment >= 0) & (assignment < 3))
        # The surviving-topology decision itself keeps Const1/Const2
        # (the run-wide counters include infeasible BO candidates, so
        # re-schedule just the final decision under a fresh registry).
        survivors = degraded_problem(
            prob,
            alive=[True, False, True, True],
            bw_factor=[1.0] * 4,
            textures=prob.textures,
        )
        telemetry.reset()
        telemetry.enable(MemorySink())
        try:
            survivors.schedule(
                crash.outcome.decision.resolutions, crash.outcome.decision.fps
            )
            final = telemetry.report()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert final.get("sched.schedules", 0) == 1
        assert final.get("sched.const1_violations", 0) == 0
        assert final.get("sched.const2_violations", 0) == 0
        # Losing 1 of 4 servers must degrade gracefully, not collapse.
        assert report.worst_drop is not None and report.worst_drop <= 0.5

    def test_stream_churn_rebuilds_observation_set(self):
        """A stream leaving changes the decision dimension; replan copes."""
        prob = _problem(n_streams=3, bandwidths=(10.0, 20.0, 30.0))
        pref = make_preference(prob)
        plan = faults.from_specs(["leave:2@0.5"])

        def factory(p):
            return PaMO(
                p,
                decision_maker=DecisionMaker(pref, rng=0),
                n_profile=40,
                n_outcome_space=20,
                n_init_comparisons=3,
                n_pref_queries=6,
                batch_size=2,
                n_iterations=3,
                n_pool=12,
                rng=0,
            )

        report = ChaosRunner(prob, plan, factory, preference=pref).run()
        (epoch,) = report.epochs
        assert epoch.n_streams == 2
        assert epoch.feasible
        assert epoch.outcome.decision.resolutions.shape == (2,)


class TestChaosReplay:
    def _greedy(self, prob, pref):
        from repro.baselines import make_scheduler

        return lambda p: make_scheduler("greedy", p, preference=pref, rng=7)

    def test_random_plan_benefits_are_pinned(self):
        # the seeded plan of test_faults' draw pin, replayed with greedy
        prob = _problem(bandwidths=(30.0, 20.0, 25.0))
        pref = make_preference(prob)
        plan = faults.random(n_servers=3, n_streams=4, horizon=10, n_faults=4, rng=7)
        report = ChaosRunner(
            prob, plan, self._greedy(prob, pref), preference=pref
        ).run()
        assert report.baseline_benefit == -0.819435261753265
        assert [e.benefit for e in report.epochs] == [
            -0.819923226004532,
            -0.819923226004532,
            -0.819923226004532,
            -0.819435261753265,
            -0.819923226004532,
            -0.7770899211197935,
            -0.7764393021181041,
            -0.819435261753265,
        ]
        assert [(e.n_servers, e.n_streams) for e in report.epochs] == [
            (2, 4), (2, 4), (3, 4), (3, 4), (3, 4), (3, 3), (3, 3), (3, 4)
        ]
        assert report.all_feasible
        assert all(e.replanned for e in report.epochs)

    def test_drift_event_is_refused(self):
        prob = _problem()
        pref = make_preference(prob)
        plan = EventLog(events=(ServeEvent(1.0, "drift"),))
        runner = ChaosRunner(prob, plan, self._greedy(prob, pref), preference=pref)
        with pytest.raises(ValueError, match="drift"):
            runner.run()

    @pytest.mark.parametrize(
        ("events", "match"),
        [
            ((ServeEvent(1.0, "drift"),), "drift is not one"),
            ((ServeEvent(0.5, "server_down", 1), ServeEvent(2.0, "drift")), "drift"),
            ((ServeEvent(1.0, "server_down", 4),), "fault target 4 out of range for 4 servers"),
            ((ServeEvent(0.5, "server_down", 1), ServeEvent(2.0, "stream_leave", 7)),
             "fault target 7 out of range for 4 streams"),
        ],
    )
    def test_a_bad_plan_fails_before_the_scheduler_is_built(self, events, match):
        built = []

        def factory(problem):
            built.append(problem)
            raise AssertionError("the scheduler must not be built for a bad plan")

        runner = ChaosRunner(_problem(), EventLog(events=events), factory)
        with pytest.raises(ValueError, match=match):
            runner.run()
        assert built == []

    def test_a_join_with_a_texture_rejoins_with_it(self):
        # the same leave and rejoin, once without a texture and once with
        # 3.0: the epochs agree until the join and differ after it
        prob = _problem(n_streams=3, bandwidths=(10.0, 20.0))
        pref = make_preference(prob)

        def benefits(specs):
            plan = faults.from_specs(specs)
            report = ChaosRunner(prob, plan, self._greedy(prob, pref), preference=pref).run()
            return [e.benefit for e in report.epochs]

        plain = benefits(["leave:2@1", "join:2@2"])
        textured = benefits(["leave:2@1", "join:2@2x3.0"])
        assert plain[0] == textured[0]
        assert plain[1] != textured[1]


class TestChaosCli:
    def test_chaos_command_random_method(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        rc = main(
            [
                "chaos",
                "--streams", "3",
                "--servers", "3",
                "--method", "random",
                "--seed", "0",
                "--faults", "crash:1@0.5,recover:1@2.0",
                "--output", str(out_path),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "baseline benefit" in printed
        report = json.loads(out_path.read_text())
        assert report["all_feasible"] is True
        assert len(report["epochs"]) == 2

    def test_chaos_command_seeded_random_plan(self, capsys):
        rc = main(
            [
                "chaos",
                "--streams", "3",
                "--servers", "3",
                "--method", "random",
                "--seed", "3",
                "--n-faults", "2",
            ]
        )
        assert rc == 0


class TestChaosAlerts:
    """An injected fault must trip the shared alert machinery."""

    def _run(self, monitor, plan_specs=("crash:1@0.5", "recover:1@2.0")):
        from repro.baselines import make_scheduler

        prob = _problem()
        pref = make_preference(prob)
        plan = faults.from_specs(list(plan_specs))

        def factory(p):
            return make_scheduler("greedy", p, preference=pref, rng=0)

        return ChaosRunner(
            prob, plan, factory, preference=pref, monitor=monitor
        ).run()

    def test_server_crash_fires_and_recovery_resolves(self):
        from repro.obs import HealthMonitor, SloRule

        monitor = HealthMonitor(
            [SloRule(metric="n_servers", op=">=", threshold=4.0)]
        )
        telemetry.reset()
        telemetry.enable(MemorySink())
        try:
            report = self._run(monitor)
            records = list(telemetry.sink.records)
        finally:
            telemetry.disable()
            telemetry.reset()
        kinds = [a["event"] for a in report.alerts]
        assert kinds == ["alert.fired", "alert.resolved"]
        assert report.alerts_fired == 1
        assert report.alerts[0]["since_epoch"] == 0
        # The same edges land in telemetry, tagged with the fault time.
        emitted = [r for r in records if r["event"].startswith("alert.")]
        assert [r["event"] for r in emitted] == kinds
        assert emitted[0]["time"] == 0.5
        assert report.to_dict()["alerts_fired"] == 1

    def test_benefit_drop_rule_abstains_without_schedule(self):
        from repro.obs import HealthMonitor, SloRule

        # Crashing every server leaves no schedule: benefit is None, so
        # the drop rule abstains instead of firing on garbage.
        monitor = HealthMonitor(
            [SloRule(metric="benefit_drop_ratio", op="<=", threshold=0.5)]
        )
        report = self._run(
            monitor,
            plan_specs=[f"crash:{j}@1.0" for j in range(4)],
        )
        assert report.alerts == []

    def test_no_monitor_no_alerts(self):
        report = self._run(None)
        assert report.alerts == []
        assert report.alerts_fired == 0

    def test_cli_max_drop_builds_monitor(self, capsys):
        rc = main(
            [
                "chaos",
                "--streams", "3",
                "--servers", "3",
                "--method", "random",
                "--seed", "0",
                "--faults", "crash:1@0.5,recover:1@2.0",
                "--max-drop", "0.0",
            ]
        )
        out = capsys.readouterr().out
        assert "alerts" in out
        # A zero budget either passes exactly (drop == 0, no alert) or
        # fires the benefit_drop rule and fails the gate.
        if rc == 1:
            assert "alert.fired: benefit_drop" in out
        else:
            assert rc == 0
