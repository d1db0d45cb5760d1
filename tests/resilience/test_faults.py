"""Fault plans: CLI spec parsing and seeded generation of serve events.

A fault event is a ``ServeEvent``; its full validation (bandwidth
factors outside (0, 1], targets, join textures) is tested in
``tests/serve/test_events.py``.
"""

import json

import pytest

from repro.resilience import faults, parse_fault_spec
from repro.serve import EventLog, ServeEvent


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ServeEvent(time=1.0, kind="meteor_strike", target=0)
        with pytest.raises(ValueError, match="kind"):
            parse_fault_spec("meteor_strike:0@1")

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time"):
            parse_fault_spec("crash:0@-0.5")

    def test_dict_roundtrip(self):
        e = parse_fault_spec("bw:1@2.0x0.25")
        assert json.loads(json.dumps(e.to_dict())) == {
            "time": 2.0, "kind": "bandwidth_drift", "target": 1, "value": 0.25
        }
        assert ServeEvent.from_dict(e.to_dict()) == e


class TestParseFaultSpec:
    @pytest.mark.parametrize(
        "spec,kind,target,time",
        [
            ("crash:1@0.5", "server_down", 1, 0.5),
            ("recover:1@2", "server_up", 1, 2.0),
            ("leave:3@1.5", "stream_leave", 3, 1.5),
            ("join:3@2.5", "stream_join", 3, 2.5),
            ("server_down:0@1", "server_down", 0, 1.0),
        ],
    )
    def test_parses(self, spec, kind, target, time):
        e = parse_fault_spec(spec)
        assert (e.kind, e.target, e.time) == (kind, target, time)

    def test_parses_bandwidth_factor(self):
        e = parse_fault_spec("bw:2@1.5x0.25")
        assert e.kind == "bandwidth_drift"
        assert e.value == 0.25

    def test_bandwidth_aliases_default_factor(self):
        # a drop without a factor keeps 10% of the uplink; a restore is
        # a drift back to the full uplink
        drop, restore = parse_fault_spec("bw:0@1"), parse_fault_spec("restore:0@2")
        assert (drop.kind, drop.value) == ("bandwidth_drift", 0.1)
        assert (restore.kind, restore.value) == ("bandwidth_drift", 1.0)

    @pytest.mark.parametrize(
        "bad", ["", "crash", "crash:1", "bogus:1@2", "crash:x@2", "server_crash:0@1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


class TestFaultPlan:
    def test_sorts_events_by_time(self):
        plan = faults.from_specs(["recover:0@3", "crash:0@1"])
        assert [e.kind for e in plan] == ["server_down", "server_up"]
        assert [e.time for e in plan] == [1.0, 3.0]

    def test_dict_roundtrip(self):
        # a plan is an event log: its JSON loads back as the same log
        plan = faults.from_specs(["crash:1@0.5", "bw:0@2.0x0.5"])
        d = json.loads(json.dumps(plan.to_dict()))
        assert d["seed"] is None
        assert EventLog.from_dict(d) == plan

    def test_random_is_seed_deterministic(self):
        a = faults.random(n_servers=4, n_streams=3, horizon=5.0, n_faults=6, rng=11)
        b = faults.random(n_servers=4, n_streams=3, horizon=5.0, n_faults=6, rng=11)
        c = faults.random(n_servers=4, n_streams=3, horizon=5.0, n_faults=6, rng=12)
        assert tuple(a) == tuple(b)
        assert tuple(a) != tuple(c)

    def test_random_keeps_its_draws(self):
        plan = faults.random(n_servers=3, n_streams=4, horizon=10, n_faults=4, rng=7)
        assert [(e.time, e.kind, e.target, e.value) for e in plan] == [
            (0.5473877410901726, "server_down", 2, None),
            (2.5268647099153263, "bandwidth_drift", 2, 0.18507482821005145),
            (5.273693870545086, "server_up", 2, None),
            (6.263432354957663, "bandwidth_drift", 2, 1.0),
            (7.673624858768415, "bandwidth_drift", 2, 0.26057072877967435),
            (8.574924208726179, "stream_leave", 2, None),
            (8.836812429384207, "bandwidth_drift", 2, 1.0),
            (9.28746210436309, "stream_join", 2, None),
        ]
        assert (plan.seed, plan.n_streams, plan.n_servers, plan.horizon_s) == (
            7, 4, 3, 10.0
        )

    def test_random_never_crashes_all_servers_at_once(self):
        for seed in range(8):
            plan = faults.random(n_servers=2, horizon=5.0, n_faults=10, rng=seed)
            crashed = set()
            for e in plan:
                if e.kind == "server_down":
                    crashed.add(e.target)
                elif e.kind == "server_up":
                    crashed.discard(e.target)
                assert len(crashed) < 2
