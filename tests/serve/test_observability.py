"""Serve-loop observability: registry wiring, health, top, CLI e2e."""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.core.problem import EVAProblem
from repro.obs import (
    HealthMonitor,
    JsonlSink,
    MetricsRegistry,
    MetricsServer,
    SloRule,
    render_prometheus,
    telemetry,
)
from repro.serve import (
    DECISION_WINDOW,
    SchedulerService,
    ServeEvent,
    ServeStats,
    approx_preference,
    render_top,
    run_top,
    summarize_serve_run,
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


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


def _churn(n=6):
    events = []
    for i in range(n):
        events.append(ServeEvent(time=float(i + 1), kind="stream_leave", target=i % 3))
        events.append(ServeEvent(time=float(i + 1) + 0.4, kind="stream_join", target=i % 3))
    return events


class TestServiceWiring:
    def test_registry_populated_by_run(self):
        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(_churn())
        svc.run()
        d = reg.to_dict()
        assert d["repro_serve_epochs_total"]["value"] == len(svc.decisions)
        assert d["repro_serve_streams"]["value"] == len(svc.planner.entries)
        hist = d["repro_serve_decision_latency_seconds"]
        assert hist["count"] == len(svc.decisions)
        assert hist["sum"] == pytest.approx(
            sum(d.latency_s for d in svc.decisions)
        )
        assert "window" not in hist
        assert d["repro_serve_cache_hit_ratio"]["value"] == pytest.approx(
            svc.health_snapshot()["cache_hit_ratio"]
        )

    def test_metrics_match_prometheus_text(self):
        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(_churn())
        svc.run()
        text = render_prometheus(reg)
        assert (
            f"repro_serve_epochs_total {len(svc.decisions)}" in text
        )
        assert 'repro_serve_decision_latency_seconds_bucket{le="+Inf"}' in text

    def test_health_snapshot_matches_summary_window(self):
        svc = _service()
        svc.submit(_churn())
        svc.run()
        snap = svc.health_snapshot()
        s = svc.summary()
        assert snap["window"] == s["decision_window"]
        assert snap["decision_p50_s"] == s["decision_p50_s"]
        assert snap["decision_p95_s"] == s["decision_p95_s"]
        assert snap["decision_p99_s"] == s["decision_p99_s"]

    def test_slo_probe_over_every_key_is_the_health_snapshot(self):
        """The compiled per-epoch probe and /healthz's snapshot share one
        definition: with a rule on every key they agree exactly, in the
        documented key order, at every epoch of a churn run."""
        keys = [
            "epoch", "window", "decision_p50_s", "decision_p95_s",
            "decision_p99_s", "decision_max_s", "cache_hit_ratio",
            "queue_depth", "n_streams", "n_alive_servers", "benefit",
            "benefit_baseline", "benefit_drop_ratio", "mode_brownout",
            "breaker_state",
        ]
        svc = _service()
        svc.attach_observability(
            monitor=HealthMonitor([SloRule.parse(f"{k} > -1") for k in keys])
        )
        svc.submit(_churn())
        svc.start()
        while svc.queue:
            svc.run(max_epochs=1)
            snap = svc.health_snapshot()
            assert list(snap) == keys
            assert svc._slo_probe() == snap
        assert snap["epoch"] == svc.decisions[-1].epoch > 0

    def test_checkpoint_roundtrip_drops_registry_keeps_monitor(self, tmp_path):
        import pickle

        svc = _service()
        svc.attach_observability(
            metrics=MetricsRegistry(),
            monitor=HealthMonitor([SloRule.parse("decision_p95_s < 10")]),
        )
        svc.submit(_churn())
        svc.run()
        clone = pickle.loads(pickle.dumps(svc))
        assert clone.metrics is None
        assert clone.monitor is not None
        assert clone.summary()["decision_window"] == svc.summary()["decision_window"]


class TestHealthAndAlerts:
    def test_fault_plan_trips_alert_and_degraded_healthz(self):
        # An impossible cache-hit SLO fires deterministically; the
        # /healthz surface and the alert edge must both reflect it.
        svc = _service()
        reg = MetricsRegistry()
        monitor = HealthMonitor(
            [SloRule(metric="cache_hit_ratio", op=">", threshold=2.0)]
        )
        svc.attach_observability(metrics=reg, monitor=monitor)
        svc.submit(
            [
                ServeEvent(time=1.0, kind="server_down", target=0),
                ServeEvent(time=2.0, kind="stream_leave", target=1),
            ]
        )
        svc.run()
        assert any(a["event"] == "alert.fired" for a in svc.alerts)
        doc = svc.health_status()
        assert doc["status"] == "degraded"
        assert doc["alerts"][0]["metric"] == "cache_hit_ratio"
        assert svc.summary()["health"] == "degraded"
        assert reg.to_dict()["repro_serve_health"]["value"] == 1.0

    def test_alert_events_reach_telemetry(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        telemetry.enable(JsonlSink(path))
        svc = _service()
        svc.attach_observability(
            monitor=HealthMonitor(
                [SloRule(metric="decision_p95_s", op="<", threshold=-1.0)]
            )
        )
        svc.submit(_churn())
        svc.run()
        telemetry.disable()
        kinds = [
            rec["event"]
            for rec in (json.loads(l) for l in path.read_text().splitlines() if l)
        ]
        assert "alert.fired" in kinds

    def test_healthy_run_stays_ok(self):
        svc = _service()
        svc.attach_observability(
            monitor=HealthMonitor([SloRule.parse("decision_p95_s < 60")])
        )
        svc.submit(_churn())
        svc.run()
        assert svc.alerts == []
        assert svc.health_status()["status"] == "ok"


class TestSummaryReportAgreement:
    _KEYS = (
        "decision_window", "decision_p50_s", "decision_p95_s",
        "decision_p99_s", "decision_max_s",
    )

    def test_summary_and_report_share_percentile_definition(self, tmp_path):
        """``repro serve report`` and ``summary()`` read one timer
        (``ServeDecision.latency_s``) through one RollingWindow, so the
        post-hoc numbers equal the live ones bit for bit."""
        path = tmp_path / "serve.jsonl"
        telemetry.enable(JsonlSink(path))
        svc = _service()
        svc.submit(_churn(8))
        svc.run()
        s = svc.summary()
        telemetry.disable()
        rep = summarize_serve_run(path).to_dict()
        assert rep["decision_count"] == s["epochs"]
        assert 0 < rep["decision_window"] <= DECISION_WINDOW
        for key in self._KEYS:
            assert rep[key] == s[key], key
        assert rep["decision_mean_s"] == pytest.approx(
            sum(d.latency_s for d in svc.decisions) / len(svc.decisions)
        )

    def test_agreement_past_the_window_bound(self, tmp_path):
        """With more epochs than DECISION_WINDOW both sides keep exactly
        the most recent DECISION_WINDOW latencies."""
        path = tmp_path / "serve.jsonl"
        telemetry.enable(JsonlSink(path))
        svc = _service()
        svc.submit(
            ServeEvent(time=float(i + 1), kind="bandwidth_drift", target=0,
                       value=1.0 if i % 2 else 0.9)
            for i in range(DECISION_WINDOW + 40)
        )
        svc.run()
        s = svc.summary()
        telemetry.disable()
        rep = summarize_serve_run(path).to_dict()
        assert s["decision_window"] == DECISION_WINDOW
        tail = sorted(d.latency_s for d in svc.decisions[-DECISION_WINDOW:])
        assert s["decision_max_s"] == tail[-1]
        for key in self._KEYS:
            assert rep[key] == s[key], key


class TestDecisionTimer:
    def test_latency_includes_the_wal_append(self):
        """``latency_s`` runs until the decision's WAL append returns."""

        class SlowWal:
            def append_event(self, seq, event):
                pass

            def append_epoch(self, **fields):
                time.sleep(0.005)

            def sync(self):
                pass

        svc = _service()
        svc.attach_wal(SlowWal())
        svc.submit(_churn(3))
        svc.run()
        assert len(svc.decisions) > 1
        assert all(d.latency_s >= 0.005 for d in svc.decisions)
        assert svc.summary()["decision_p50_s"] >= 0.005

    def test_event_carries_the_measured_latency(self):
        """The ``serve.decision`` event is emitted after the timer stops
        and carries the same value the decision and window hold."""
        from repro.obs import MemorySink

        sink = MemorySink()
        telemetry.enable(sink)
        svc = _service()
        svc.submit(_churn(3))
        svc.run()
        telemetry.disable()
        logged = [
            r["latency_s"] for r in sink.records if r["event"] == "serve.decision"
        ]
        assert logged == [d.latency_s for d in svc.decisions]


class TestVarzAndTop:
    def _varz(self):
        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(
            metrics=reg,
            monitor=HealthMonitor([SloRule.parse("decision_p95_s < 60")]),
        )
        svc.submit(_churn())
        svc.run()
        return {
            "metrics": reg.to_dict(),
            "health": svc.health_status(),
            "service": svc.varz(),
        }

    def test_render_top_shows_live_numbers(self):
        varz = self._varz()
        frame = render_top(varz, color=False)
        snap = varz["service"]["snapshot"]
        assert "health OK" in frame
        assert f"epoch {snap['epoch']}" in frame
        assert f"{snap['cache_hit_ratio']:8.1%}" in frame
        assert "no alerts firing" in frame

    def test_render_top_alert_section(self):
        varz = self._varz()
        varz["health"]["status"] = "degraded"
        varz["health"]["alerts"] = [
            {
                "rule": "latency", "metric": "decision_p95_s",
                "severity": "degraded", "threshold": 0.1,
                "value": 0.5, "since_epoch": 2,
            }
        ]
        frame = render_top(varz, color=True)
        assert "ALERTS (1 firing)" in frame
        assert "decision_p95_s=0.5" in frame
        assert "\x1b[33m" in frame  # degraded renders yellow

    def test_run_top_against_live_server(self):
        import io

        svc = _service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(_churn())
        svc.run()
        out = io.StringIO()
        with MetricsServer(
            reg, health=svc.health_status, varz=svc.varz
        ) as server:
            rc = run_top(
                server.url, interval_s=0.01, iterations=2,
                color=False, clear=False, stream=out,
            )
        assert rc == 0
        assert out.getvalue().count("repro serve top") == 2
        # The rate needs two polls: only the second frame has one.
        assert out.getvalue().count("epoch rate") == 1

    def test_run_top_unreachable_exits_1(self):
        import io

        out = io.StringIO()
        rc = run_top(
            "http://127.0.0.1:1", interval_s=0.01, iterations=1,
            color=False, clear=False, stream=out,
        )
        assert rc == 1
        assert "cannot reach" in out.getvalue()


class TestCliEndToEnd:
    def test_metrics_port_serves_during_run(self, tmp_path, capsys):
        # An in-process CLI run with --pace long enough to scrape would
        # race; instead run to completion with port=0 and assert the
        # printed URL, then e2e-scrape via the service objects directly
        # (subprocess coverage lives in the metrics-smoke CI job).
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.02", "--arrivals-per-hour", "300",
                "--departures-per-hour", "200", "--seed", "1",
                "--metrics-port", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "/metrics" in out
        assert "health" in out

    def test_bad_slo_rule_exits_2(self, capsys):
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.01", "--metrics-port", "0",
                "--slo", "not a rule at all",
            ]
        )
        assert rc == 2
        assert "slo" in capsys.readouterr().err.lower()

    def test_custom_slo_rule_applied(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.02", "--arrivals-per-hour", "300",
                "--departures-per-hour", "200", "--seed", "1",
                "--metrics-port", "0",
                "--slo", "impossible: cache_hit_ratio > 2",
                "--telemetry", str(trace),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "health" in out
        rep = summarize_serve_run(trace)
        assert rep.alerts_fired >= 1

    def test_telemetry_rotation_flags(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.05", "--arrivals-per-hour", "600",
                "--departures-per-hour", "400", "--seed", "2",
                "--telemetry", str(trace),
                "--telemetry-max-mb", "0.002", "--telemetry-backups", "8",
            ]
        )
        assert rc == 0
        assert (tmp_path / "serve.jsonl.1").exists()
        # The report stitches rotated segments back together.
        rep = summarize_serve_run(trace)
        assert rep.epochs > 0


class _FailingResolve:
    """A batch scheduler whose warm-up solve works and every re-solve raises."""

    def __init__(self, problem, preference):
        from repro.baselines import make_scheduler

        self.inner = make_scheduler("random", problem, preference=preference, rng=0)

    def optimize(self):
        return self.inner.optimize()

    def replan(self, problem, *, reason=""):
        raise RuntimeError("solver down")


class TestOneTally:
    """``summary()``, ``/healthz``, the registry counters and ``repro serve
    report`` read every decision-derived count from one tally, so they
    agree on a finished run, on a killed run's log, and when full solves
    fail under a circuit breaker."""

    _DECISION_KEYS = (
        "epochs", "events", "full_solves", "cache_hits", "solved",
        "rejected", "evicted", "shed", "brownout_epochs", "benefit_first",
        "benefit_last", "decision_window", "decision_p50_s",
        "decision_p95_s", "decision_p99_s", "decision_max_s",
        "decision_mean_s",
    )
    _REGISTRY_KEYS = {
        "epochs": "repro_serve_epochs_total",
        "full_solves": "repro_serve_full_solves_total",
        "cache_hits": "repro_serve_cache_hits_total",
        "solved": "repro_serve_solved_total",
        "rejected": "repro_serve_admission_rejects_total",
        "evicted": "repro_serve_evictions_total",
        "shed": "repro_serve_sheds_total",
    }

    @staticmethod
    def _logged_run(svc, events, path):
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        telemetry.enable(JsonlSink(path))
        svc.submit(events)
        svc.run()
        telemetry.emit_summary()
        telemetry.disable()
        return reg.to_dict()

    def _assert_one_tally(self, svc, path):
        logged = summarize_serve_run(path)
        assert logged.stats.to_dict() == svc.stats.to_dict()
        rep = logged.to_dict()
        s = svc.summary()
        for key in self._DECISION_KEYS:
            assert rep[key] == s[key], key
        assert rep["admission_rejects"] == s["rejected"]
        assert rep["decision_count"] == s["epochs"]
        assert rep["cache_hit_ratio"] == svc.health_snapshot()["cache_hit_ratio"]
        return rep, s

    def _assert_registry(self, metrics, s):
        for key, name in self._REGISTRY_KEYS.items():
            assert metrics[name]["value"] == s[key], name
        assert metrics["repro_serve_decision_latency_seconds"]["count"] == s["epochs"]

    def test_churn_with_priority_admission(self, tmp_path):
        from repro.serve import AdmissionController, ChurnProfile, generate_load

        problem = _problem(n_streams=8, n_servers=3)
        profile = ChurnProfile(
            hours=0.25, arrivals_per_hour=2400.0, departures_per_hour=1200.0,
            drifts_per_hour=40.0, flaps_per_hour=20.0,
        )
        log = generate_load(8, 3, profile=profile, seed=3)
        svc = _service(
            problem,
            reoptimize_every=50,
            admission=AdmissionController(
                priority_map={sid: 2 for sid in range(0, 4000, 4)},
                default_priority=1,
                join_rate_per_epoch=0.8,
                protect_priority=2,
            ),
        )
        path = tmp_path / "churn.jsonl"
        metrics = self._logged_run(svc, log.events, path)
        rep, s = self._assert_one_tally(svc, path)
        assert s["epochs"] > DECISION_WINDOW
        assert s["rejected"] and s["evicted"] and s["shed"]
        self._assert_registry(metrics, s)
        # the windowed hit ratio, not the lifetime one
        assert rep["cache_hit_ratio"] != s["cache_hits"] / (s["cache_hits"] + s["solved"])

    def test_failing_full_solves_under_a_breaker_and_the_killed_log(self, tmp_path):
        from repro.resilience.breaker import CircuitBreaker

        problem = _problem()
        pref = approx_preference(problem)
        svc = SchedulerService(
            problem,
            preference=pref,
            scheduler_factory=lambda prob, epoch: _FailingResolve(prob, pref),
            breaker=CircuitBreaker(failure_threshold=2, cooldown_epochs=2),
        )
        events = [
            ServeEvent(time=float(t), kind="drift") for t in (1, 2, 3)
        ] + _churn(4)
        path = tmp_path / "breaker.jsonl"
        metrics = self._logged_run(svc, events, path)
        rep, s = self._assert_one_tally(svc, path)
        assert s["full_solves"] == 1  # only the warm-up solve was recorded
        assert s["brownout_epochs"] > 0
        assert rep["breaker_opens"] == 1
        self._assert_registry(metrics, s)

        killed = tmp_path / "killed.jsonl"
        lines = path.read_text().splitlines()
        kept = [ln for ln in lines if json.loads(ln).get("event") != "run.summary"]
        assert len(kept) == len(lines) - 1
        killed.write_text("\n".join(kept) + "\n")
        assert summarize_serve_run(killed).counters == {}
        self._assert_one_tally(svc, killed)

    def test_a_log_cut_mid_run_tallies_as_the_records_before_the_cut(self, tmp_path):
        """The service logs the very record it pushes, so a log cut off
        mid-run (torn last line) tallies as the live records before it."""
        from repro.serve import AdmissionController

        svc = _service(
            admission=AdmissionController(join_rate_per_epoch=0.5),
            reoptimize_every=3,
        )
        pushed = []
        push = svc.stats.push
        svc.stats.push = lambda record: (pushed.append(record), push(record))
        path = tmp_path / "serve.jsonl"
        self._logged_run(svc, _churn(8), path)
        self._assert_one_tally(svc, path)
        lines = path.read_text().splitlines(keepends=True)
        records = [json.loads(ln) for ln in lines]
        at = [i for i, r in enumerate(records) if r["event"] == "serve.decision"]
        logged = [records[i] for i in at]
        assert [
            {k: v for k, v in rec.items() if k not in ("event", "ts", "pid")}
            for rec in logged
        ] == pushed
        assert any(r["shed"] for r in pushed) and any(r["full_solve"] for r in pushed)
        for k in (1, len(at) // 2, len(at) - 1):
            cut = tmp_path / f"cut{k}.jsonl"
            torn = lines[at[k]]
            cut.write_text("".join(lines[: at[k]]) + torn[: len(torn) // 2])
            fed = ServeStats()
            for record in pushed[:k]:
                fed.push(record)
            assert summarize_serve_run(cut).stats.to_dict() == fed.to_dict(), k

    def test_registry_attached_mid_run_reads_the_whole_run(self):
        svc = _service()
        svc.submit(_churn())
        svc.run(max_epochs=4)
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.run()
        self._assert_registry(reg.to_dict(), svc.summary())

    def test_summary_and_varz_do_not_rescan_the_decisions(self):
        class Unreadable(list):
            def __iter__(self):
                raise AssertionError("the decisions were re-scanned")

        svc = _service()
        svc.attach_observability(metrics=MetricsRegistry())
        svc.submit(_churn())
        svc.run()
        expected = svc.summary()
        svc.decisions = Unreadable(svc.decisions)
        assert svc.summary() == expected
        assert svc.varz()["summary"] == expected


class TestScrapeTimeView:
    """Every ``repro_serve_*`` series is read from the service at scrape
    time, and reads what per-epoch instruments fed from each decision
    would hold: counters equal to the ``summary()`` counts, a histogram
    over every decision's ``latency_s`` and gauges equal to their
    ``health_snapshot()`` inputs — however late the registry attached."""

    _GAUGES = {
        "repro_serve_streams": "n_streams",
        "repro_serve_alive_servers": "n_alive_servers",
        "repro_serve_queue_depth": "queue_depth",
        "repro_serve_cache_hit_ratio": "cache_hit_ratio",
        "repro_serve_benefit": "benefit",
        "repro_serve_benefit_baseline": "benefit_baseline",
        "repro_serve_benefit_drop_ratio": "benefit_drop_ratio",
        "repro_serve_mode": "mode_brownout",
        "repro_serve_breaker_state": "breaker_state",
    }

    @staticmethod
    def _service():
        from repro.obs import default_rules
        from repro.serve import AdmissionController, ChurnProfile, generate_load

        problem = _problem(n_streams=8, n_servers=3)
        svc = _service(
            problem,
            reoptimize_every=50,
            admission=AdmissionController(
                priority_map={sid: 2 for sid in range(0, 4000, 4)},
                default_priority=1,
                join_rate_per_epoch=0.8,
                protect_priority=2,
            ),
        )
        svc.attach_observability(monitor=HealthMonitor(default_rules()))
        profile = ChurnProfile(
            hours=0.1, arrivals_per_hour=2400.0, departures_per_hour=1200.0,
            drifts_per_hour=40.0, flaps_per_hour=20.0,
        )
        svc.submit(generate_load(8, 3, profile=profile, seed=3).events)
        return svc

    def _assert_view(self, svc, reg, ordered):
        from bisect import bisect_right, insort

        from repro.obs.health import severity_rank

        for d in svc.decisions[len(ordered):]:
            insort(ordered, d.latency_s)
        metrics = reg.to_dict()
        assert set(metrics) == {
            *TestOneTally._REGISTRY_KEYS.values(), *self._GAUGES,
            "repro_serve_decision_latency_seconds", "repro_serve_health",
        }
        s = svc.summary()
        for key, name in TestOneTally._REGISTRY_KEYS.items():
            assert metrics[name]["value"] == s[key], name
        hist = metrics["repro_serve_decision_latency_seconds"]
        total = 0.0
        for d in svc.decisions:
            total += d.latency_s
        assert hist["count"] == s["epochs"] == len(svc.decisions) == len(ordered)
        assert hist["sum"] == svc.stats.latency_sum == total
        for le, cumulative in hist["buckets"]:
            expected = len(ordered) if le == "+Inf" else bisect_right(ordered, le)
            assert cumulative == expected, le
        snap = svc.health_snapshot()
        for name, key in self._GAUGES.items():
            expected = 0 if snap[key] is None else snap[key]
            assert metrics[name]["value"] == expected, name
        assert metrics["repro_serve_health"]["value"] == severity_rank(
            svc.monitor.state
        )

    def _drain(self, svc, reg, ordered):
        while svc.queue:
            svc.run(max_epochs=1)
            self._assert_view(svc, reg, ordered)

    def test_attached_before_start(self):
        svc = self._service()
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg, monitor=svc.monitor)
        ordered = []
        self._assert_view(svc, reg, ordered)  # no decision yet
        svc.start()
        self._assert_view(svc, reg, ordered)
        self._drain(svc, reg, ordered)
        s = svc.summary()
        assert s["epochs"] > 100
        assert s["rejected"] and s["evicted"] and s["shed"]

    def test_attached_mid_run(self):
        svc = self._service()
        svc.run(max_epochs=60)
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg, monitor=svc.monitor)
        ordered = []
        self._assert_view(svc, reg, ordered)
        self._drain(svc, reg, ordered)

    def test_attached_after_resume(self, tmp_path):
        svc = self._service()
        svc.attach_observability(metrics=MetricsRegistry(), monitor=svc.monitor)
        svc.run(max_epochs=60)
        path = svc.save_checkpoint(tmp_path / "serve.ckpt")
        resumed = SchedulerService.resume(path)
        assert resumed.metrics is None
        reg = MetricsRegistry()
        resumed.attach_observability(metrics=reg, monitor=resumed.monitor)
        ordered = []
        self._assert_view(resumed, reg, ordered)
        self._drain(resumed, reg, ordered)
