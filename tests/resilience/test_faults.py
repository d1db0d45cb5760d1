"""Fault-plan construction, parsing and seeded generation."""

import json

import pytest

from repro.resilience import FaultEvent, FaultPlan, parse_fault_spec


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
        assert json.loads(json.dumps(e.to_dict())) == {
            "time": 2.0, "kind": "bandwidth_drop", "target": 1, "value": 0.25
        }


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
        assert [e.time for e in plan] == [1.0, 3.0]

    def test_dict_roundtrip(self):
        plan = FaultPlan.from_specs(["crash:1@0.5", "bw:0@2.0x0.5"])
        d = json.loads(json.dumps(plan.to_dict()))
        assert d["seed"] is None
        assert d["events"] == [e.to_dict() for e in plan]

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
