"""Observability: telemetry spans/counters/events and profiling hooks.

Usage::

    from repro.obs import telemetry

    telemetry.enable("run.jsonl", profile=False)   # opt in
    with telemetry.span("pamo.fit_outcomes"):
        ...
    telemetry.counter("pamo.tx_cache.hit")
    telemetry.event("bo.iteration", iteration=1, batch_best=0.42)
    summary = telemetry.report()

Everything is a fast no-op until :func:`~repro.obs.telemetry.Telemetry.enable`
is called, so library code is instrumented unconditionally.
"""

from repro.obs.exposition import MetricsServer, render_prometheus
from repro.obs.health import Alert, HealthMonitor, SloRule, default_rules
from repro.obs.metrics import MetricsRegistry, RollingWindow
from repro.obs.sinks import EventSink, JsonlSink, MemorySink, NullSink
from repro.obs.telemetry import (
    Telemetry,
    new_span_id,
    new_trace_id,
    telemetry,
)

__all__ = [
    "Alert",
    "EventSink",
    "HealthMonitor",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "MetricsServer",
    "NullSink",
    "RollingWindow",
    "SloRule",
    "Telemetry",
    "default_rules",
    "new_span_id",
    "new_trace_id",
    "render_prometheus",
    "telemetry",
]
