"""Fault-plan construction, parsing, and deterministic sim replay."""

import numpy as np
import pytest

from repro.obs import MemorySink, telemetry
from repro.resilience import FaultEvent, FaultPlan, parse_fault_spec
from repro.sim.cluster import EdgeCluster, StreamSpec


def _streams():
    return [
        StreamSpec(0, fps=5.0, processing_time=0.01, bits_per_frame=1e5),
        StreamSpec(1, fps=10.0, processing_time=0.01, bits_per_frame=2e5),
        StreamSpec(2, fps=2.0, processing_time=0.02, bits_per_frame=1e5),
    ]


def _run_once(plan):
    """One fault-injected sim; returns (fault events, per-stream counts)."""
    telemetry.reset()
    sink = MemorySink()
    telemetry.enable(sink)
    try:
        cluster = EdgeCluster([30.0, 20.0, 10.0])
        report = cluster.run(_streams(), [0, 1, 2], 4.0, fault_plan=plan)
        faults = [
            (r["kind"], r["target"], r["time"])
            for r in sink.records
            if r.get("event") == "fault.inject"
        ]
        counts = {
            sid: (m.frames_emitted, m.frames_completed)
            for sid, m in report.streams.items()
        }
        dropped = [srv.frames_dropped for srv in cluster.servers]
    finally:
        telemetry.disable()
        telemetry.reset()
    return faults, counts, dropped


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(time=1.0, kind="meteor_strike", target=0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            FaultEvent(time=-0.5, kind="server_crash", target=0)

    def test_bandwidth_drop_value_default_and_bounds(self):
        e = FaultEvent(time=1.0, kind="bandwidth_drop", target=0)
        assert 0.0 < e.value <= 1.0
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="bandwidth_drop", target=0, value=0.0)
        with pytest.raises(ValueError):
            FaultEvent(time=1.0, kind="bandwidth_drop", target=0, value=1.5)

    def test_dict_roundtrip(self):
        e = FaultEvent(time=2.0, kind="bandwidth_drop", target=1, value=0.25)
        assert FaultEvent.from_dict(e.to_dict()) == e


class TestParseFaultSpec:
    @pytest.mark.parametrize(
        "spec,kind,target,time",
        [
            ("crash:1@0.5", "server_crash", 1, 0.5),
            ("recover:1@2", "server_recover", 1, 2.0),
            ("leave:3@1.5", "stream_leave", 3, 1.5),
            ("join:3@2.5", "stream_join", 3, 2.5),
            ("server_crash:0@1", "server_crash", 0, 1.0),
        ],
    )
    def test_parses(self, spec, kind, target, time):
        e = parse_fault_spec(spec)
        assert (e.kind, e.target, e.time) == (kind, target, time)

    def test_parses_bandwidth_factor(self):
        e = parse_fault_spec("bw:2@1.5x0.25")
        assert e.kind == "bandwidth_drop"
        assert e.value == 0.25

    @pytest.mark.parametrize("bad", ["", "crash", "crash:1", "bogus:1@2", "crash:x@2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestFaultPlan:
    def test_sorts_events_by_time(self):
        plan = FaultPlan.from_specs(["recover:0@3", "crash:0@1"])
        assert [e.kind for e in plan] == ["server_crash", "server_recover"]
        assert plan.horizon == 3.0

    def test_dict_roundtrip(self):
        plan = FaultPlan.from_specs(["crash:1@0.5", "bw:0@2.0x0.5"])
        assert tuple(FaultPlan.from_dict(plan.to_dict())) == tuple(plan)

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(n_servers=4, n_streams=3, horizon=5.0, n_faults=6, rng=11)
        b = FaultPlan.random(n_servers=4, n_streams=3, horizon=5.0, n_faults=6, rng=11)
        c = FaultPlan.random(n_servers=4, n_streams=3, horizon=5.0, n_faults=6, rng=12)
        assert tuple(a) == tuple(b)
        assert tuple(a) != tuple(c)

    def test_random_never_crashes_all_servers_at_once(self):
        for seed in range(8):
            plan = FaultPlan.random(
                n_servers=2, horizon=5.0, n_faults=10, rng=seed
            )
            crashed = set()
            for e in plan:
                if e.kind == "server_crash":
                    crashed.add(e.target)
                elif e.kind == "server_recover":
                    crashed.discard(e.target)
                assert len(crashed) < 2


class TestDeterministicReplay:
    def test_same_plan_same_events_and_metrics(self):
        """Two runs under the same seeded plan are bit-identical."""
        plan = FaultPlan.random(
            n_servers=3, n_streams=3, horizon=3.0, n_faults=5, rng=3
        )
        first = _run_once(plan)
        second = _run_once(plan)
        assert first == second
        # the plan actually did something
        assert first[0], "plan injected no faults"

    def test_crash_drops_frames_and_recover_resumes(self):
        plan = FaultPlan.from_specs(["crash:0@0.5", "recover:0@2.0"])
        faults, counts, dropped = _run_once(plan)
        assert [f[0] for f in faults] == ["server_crash", "server_recover"]
        assert dropped[0] > 0
        emitted, completed = counts[0]
        assert 0 < completed < emitted

    def test_stream_leave_and_join_gate_emission(self):
        quiet = _run_once(FaultPlan.from_specs(["leave:0@1.0"]))
        rejoin = _run_once(
            FaultPlan.from_specs(["leave:0@1.0", "join:0@2.0"])
        )
        assert quiet[1][0][0] < rejoin[1][0][0] <= _run_once(FaultPlan(()))[1][0][0]
