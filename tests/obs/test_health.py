"""Tests for repro.obs.health: SLO rules, hysteresis, alert edges."""

import pytest

from repro.obs import HealthMonitor, SloRule, default_rules
from repro.obs.health import SEVERITIES, severity_rank


class TestSloRule:
    def test_holds_is_healthy_while(self):
        """The rule's comparison is its healthy condition: a monitor stays
        quiet while it holds and fires once it does not."""
        mon = HealthMonitor([SloRule(metric="p95", op="<", threshold=0.25)])
        assert mon.evaluate({"p95": 0.1}) == []
        assert [e["event"] for e in mon.evaluate({"p95": 0.3})] == ["alert.fired"]

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError, match="comparator"):
            SloRule(metric="x", op="==", threshold=1.0)

    def test_bad_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            SloRule(metric="x", op="<", threshold=1.0, severity="ok")

    def test_bad_for_count_rejected(self):
        with pytest.raises(ValueError, match="for_count"):
            SloRule(metric="x", op="<", threshold=1.0, for_count=0)

    def test_parse_minimal(self):
        rule = SloRule.parse("decision_p95_s < 0.25")
        assert rule.metric == "decision_p95_s"
        assert rule.op == "<"
        assert rule.threshold == 0.25
        assert rule.severity == "degraded"
        assert rule.for_count == 1

    def test_parse_full(self):
        rule = SloRule.parse("latency: decision_p95_s <= 0.1 for 3 ! unhealthy")
        assert rule.name == "latency"
        assert rule.op == "<="
        assert rule.for_count == 3
        assert rule.severity == "unhealthy"

    def test_parse_spec_roundtrip(self):
        rule = SloRule(
            metric="cache_hit_ratio",
            op=">=",
            threshold=0.5,
            severity="unhealthy",
            for_count=2,
        )
        assert SloRule.parse(rule.spec()) == rule

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError, match="cannot parse"):
            SloRule.parse("what even is this")

    def test_severity_rank_order(self):
        assert [severity_rank(s) for s in SEVERITIES] == [0, 1, 2]


class TestHealthMonitor:
    def _monitor(self, **kw):
        return HealthMonitor(
            [SloRule(metric="p95", op="<", threshold=0.25, **kw)]
        )

    def test_healthy_no_edges(self):
        mon = self._monitor()
        assert mon.evaluate({"p95": 0.1}) == []
        assert mon.state == "ok"
        assert mon.active == []

    def test_fire_and_resolve_edges_once(self):
        mon = self._monitor()
        edges = mon.evaluate({"p95": 0.5}, epoch=3)
        assert [e["event"] for e in edges] == ["alert.fired"]
        assert edges[0]["since_epoch"] == 3
        assert mon.state == "degraded"
        # Steady violation: no repeated fire.
        assert mon.evaluate({"p95": 0.6}, epoch=4) == []
        edges = mon.evaluate({"p95": 0.1}, epoch=5)
        assert [e["event"] for e in edges] == ["alert.resolved"]
        assert mon.state == "ok"

    def test_for_count_hysteresis(self):
        mon = self._monitor(for_count=3)
        assert mon.evaluate({"p95": 0.5}, epoch=0) == []
        assert mon.evaluate({"p95": 0.5}, epoch=1) == []
        edges = mon.evaluate({"p95": 0.5}, epoch=2)
        assert [e["event"] for e in edges] == ["alert.fired"]

    def test_for_count_resets_on_pass(self):
        mon = self._monitor(for_count=2)
        mon.evaluate({"p95": 0.5}, epoch=0)
        mon.evaluate({"p95": 0.1}, epoch=1)  # healthy resets the streak
        assert mon.evaluate({"p95": 0.5}, epoch=2) == []

    def test_missing_metric_abstains(self):
        mon = self._monitor()
        assert mon.evaluate({}) == []
        assert mon.evaluate({"p95": None}) == []
        assert mon.state == "ok"

    def test_state_is_worst_active_severity(self):
        mon = HealthMonitor(
            [
                SloRule(metric="a", op="<", threshold=1.0, severity="degraded"),
                SloRule(metric="b", op="<", threshold=1.0, severity="unhealthy"),
            ]
        )
        mon.evaluate({"a": 2.0, "b": 2.0})
        assert mon.state == "unhealthy"
        assert [a.severity for a in mon.active] == ["unhealthy", "degraded"]

    def test_status_document(self):
        mon = self._monitor()
        mon.evaluate({"p95": 0.5}, epoch=1)
        doc = mon.status()
        assert doc["status"] == "degraded"
        assert len(doc["alerts"]) == 1
        assert doc["alerts"][0]["metric"] == "p95"
        assert doc["rules"] == [r.spec() for r in mon.rules]

    def test_picklable(self):
        import pickle

        mon = self._monitor()
        mon.evaluate({"p95": 0.5}, epoch=1)
        clone = pickle.loads(pickle.dumps(mon))
        assert clone.state == "degraded"
        # The clone continues the state machine where it left off.
        assert [e["event"] for e in clone.evaluate({"p95": 0.1})] == [
            "alert.resolved"
        ]


class TestDefaultRules:
    def test_latency_rule_fires_unhealthy_after_three(self):
        mon = HealthMonitor(default_rules(p95_budget_s=0.25))
        bad = {"decision_p95_s": 0.5, "benefit_drop_ratio": 0.0}
        mon.evaluate(bad)
        mon.evaluate(bad)
        edges = mon.evaluate(bad)
        assert [e["event"] for e in edges] == ["alert.fired"]
        assert mon.state == "unhealthy"

    def test_benefit_drop_rule(self):
        mon = HealthMonitor(default_rules(max_benefit_drop=0.5))
        edges = mon.evaluate(
            {"decision_p95_s": 0.001, "benefit_drop_ratio": 0.9}
        )
        assert [e["event"] for e in edges] == ["alert.fired"]
        assert mon.state == "degraded"

    def test_cache_hit_rule_optional(self):
        rules = default_rules(min_cache_hit_ratio=0.5)
        assert any(r.metric == "cache_hit_ratio" for r in rules)
        assert not any(
            r.metric == "cache_hit_ratio" for r in default_rules()
        )
