"""Tests for repro.obs.exposition: Prometheus text + the HTTP endpoints."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, MetricsServer, render_prometheus
from repro.obs.exposition import CONTENT_TYPE_LATEST
from repro.obs.metrics import histogram_snapshot


def _get(url, path):
    return urllib.request.urlopen(f"{url}{path}", timeout=5)


def _registry(**series):
    """A registry over one source serving ``series`` as given."""
    reg = MetricsRegistry()
    reg.add_source(lambda: dict(series))
    return reg


def _gauge(value, help=""):
    return {"type": "gauge", "help": help, "value": value}


class TestRenderPrometheus:
    def test_empty_registry_empty_body(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_golden_output(self):
        # Dyadic values 0.0078125, 0.0625 and 0.5: the _sum line reprs
        # exactly (0.5703125).
        reg = _registry(
            repro_serve_queue_depth=_gauge(2.0, "events waiting"),
            repro_serve_epochs_total={
                "type": "counter", "help": "epoch decisions made", "value": 3.0
            },
            repro_serve_decision_latency_seconds={
                "type": "histogram",
                "help": "per-epoch decision latency",
                "count": 3,
                "sum": 0.5703125,
                "buckets": [[0.01, 1], [0.1, 2], ["+Inf", 3]],
            },
        )
        assert render_prometheus(reg) == (
            "# HELP repro_serve_decision_latency_seconds"
            " per-epoch decision latency\n"
            "# TYPE repro_serve_decision_latency_seconds histogram\n"
            'repro_serve_decision_latency_seconds_bucket{le="0.01"} 1\n'
            'repro_serve_decision_latency_seconds_bucket{le="0.1"} 2\n'
            'repro_serve_decision_latency_seconds_bucket{le="+Inf"} 3\n'
            "repro_serve_decision_latency_seconds_sum 0.5703125\n"
            "repro_serve_decision_latency_seconds_count 3\n"
            "# HELP repro_serve_epochs_total epoch decisions made\n"
            "# TYPE repro_serve_epochs_total counter\n"
            "repro_serve_epochs_total 3\n"
            "# HELP repro_serve_queue_depth events waiting\n"
            "# TYPE repro_serve_queue_depth gauge\n"
            "repro_serve_queue_depth 2\n"
        )

    def test_no_help_line_when_help_empty(self):
        reg = _registry(repro_c={"type": "counter", "help": "", "value": 1.0})
        text = render_prometheus(reg)
        assert "# HELP" not in text
        assert "# TYPE repro_c counter" in text

    def test_integer_values_render_without_decimal(self):
        reg = _registry(repro_g=_gauge(4.0))
        assert "repro_g 4\n" in render_prometheus(reg)

    def test_bucket_counts_are_cumulative_and_monotone(self):
        from repro.serve import ServeStats

        stats = ServeStats()
        for v in (0.05, 0.5, 5.0, 50.0):
            stats.push({"latency_s": v})
        reg = _registry(
            h=histogram_snapshot(
                "", stats.latency_buckets, stats.epochs, stats.latency_sum
            )
        )
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in render_prometheus(reg).splitlines()
            if "_bucket" in line
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4


class TestMetricsServer:
    @pytest.fixture
    def served(self):
        reg = _registry(
            repro_hits_total={
                "type": "counter", "help": "scrape fodder", "value": 5.0
            }
        )
        health = {"status": "ok", "alerts": []}
        server = MetricsServer(
            reg,
            health=lambda: dict(health),
            varz=lambda: {"summary": {"epochs": 1}},
        )
        server.start()
        yield server, reg, health
        server.stop()

    def test_metrics_route(self, served):
        server, _, _ = served
        with _get(server.url, "/metrics") as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"] == CONTENT_TYPE_LATEST
            body = resp.read().decode()
        assert "repro_hits_total 5" in body

    def test_healthz_ok_and_unhealthy_codes(self, served):
        server, _, health = served
        with _get(server.url, "/healthz") as resp:
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
        health["status"] = "unhealthy"
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url, "/healthz")
        assert exc_info.value.code == 503
        assert json.loads(exc_info.value.read())["status"] == "unhealthy"

    def test_healthz_degraded_is_200(self, served):
        server, _, health = served
        health["status"] = "degraded"
        with _get(server.url, "/healthz") as resp:
            assert resp.status == 200

    def test_varz_combines_metrics_health_service(self, served):
        server, _, _ = served
        with _get(server.url, "/varz") as resp:
            doc = json.loads(resp.read())
        assert doc["metrics"]["repro_hits_total"]["value"] == 5
        assert doc["health"]["status"] == "ok"
        assert doc["service"]["summary"]["epochs"] == 1

    def test_unknown_route_404(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            _get(server.url, "/nope")
        assert exc_info.value.code == 404

    def test_broken_varz_fn_is_500_not_crash(self):
        reg = MetricsRegistry()
        with MetricsServer(reg, varz=lambda: 1 / 0) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                _get(server.url, "/varz")
            assert exc_info.value.code == 500
            # The server survives: the next scrape still works.
            with _get(server.url, "/metrics") as resp:
                assert resp.status == 200

    def test_ephemeral_port_and_idempotent_lifecycle(self):
        server = MetricsServer(MetricsRegistry())
        port = server.start()
        assert port > 0
        assert server.start() == port
        server.stop()
        server.stop()

    def test_concurrent_scrape_while_updating(self):
        """Scrapes racing a serve run in another thread stay well-formed
        and monotone, and every histogram's +Inf bucket is its _count."""
        from repro.core.problem import EVAProblem
        from repro.serve import (
            ChurnProfile,
            SchedulerService,
            approx_preference,
            generate_load,
        )

        problem = EVAProblem(8, [10.0, 15.0, 20.0])
        svc = SchedulerService(problem, preference=approx_preference(problem))
        reg = MetricsRegistry()
        svc.attach_observability(metrics=reg)
        svc.submit(
            generate_load(
                8, 3, seed=0,
                profile=ChurnProfile(
                    hours=0.1, arrivals_per_hour=2400.0,
                    departures_per_hour=1200.0, drifts_per_hour=40.0,
                    flaps_per_hour=20.0,
                ),
            ).events
        )
        # Pacing releases the GIL between epochs, so scrapes land mid-run.
        serve = threading.Thread(target=svc.run, kwargs={"pace_s": 0.001})
        with MetricsServer(reg) as server:
            serve.start()
            last: dict[str, float] = {}
            seen_epochs = set()
            scrapes = 0
            done = False
            while not done:
                done = not serve.is_alive() and scrapes >= 5
                with _get(server.url, "/metrics") as resp:
                    body = resp.read().decode()
                scrapes += 1
                types, sample = {}, {}
                for line in body.splitlines():
                    if line.startswith("# TYPE "):
                        name, kind = line[len("# TYPE "):].split(" ")
                        types[name] = kind
                    elif not line.startswith("#"):
                        key, val = line.rsplit(" ", 1)
                        sample[key] = float(val)
                assert types and sample
                for name, kind in types.items():
                    if kind == "counter":
                        # A counter never goes backwards across scrapes.
                        assert sample[name] >= last.get(name, 0.0)
                        last[name] = sample[name]
                    elif kind == "histogram":
                        buckets = [
                            v for k, v in sample.items()
                            if k.startswith(f"{name}_bucket")
                        ]
                        assert buckets == sorted(buckets)
                        assert (
                            sample[f'{name}_bucket{{le="+Inf"}}']
                            == sample[f"{name}_count"]
                        )
                    else:
                        assert name in sample
                seen_epochs.add(last["repro_serve_epochs_total"])
            serve.join()
        # The last scrape began after the run ended; others saw it running.
        assert last["repro_serve_epochs_total"] == len(svc.decisions) > 100
        assert len(seen_epochs) > 2
