"""``repro.serve`` — the event-driven online scheduler service.

Turns the repo's one-shot batch optimization into a long-lived
scheduler process: :class:`~repro.serve.service.SchedulerService`
consumes :class:`~repro.serve.events.ServeEvent` churn (stream
join/leave, bandwidth drift, server membership, drift alarms) on an
epoch clock, maintains the live schedule incrementally through
:class:`~repro.serve.engine.IncrementalPlanner`, and proves the
incremental path with ``serve.*`` telemetry counters.
:func:`~repro.serve.loadgen.generate_load` drives seeded churn at
thousands of events per simulated hour, and
:func:`~repro.serve.report.summarize_serve_run` turns the resulting
trace into decision-latency percentiles for the ``repro serve report``
CLI and the ``serve-smoke`` CI gate.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionOutcome,
    parse_priority_map,
)
from repro.serve.engine import IncrementalPlanner, approx_preference
from repro.serve.events import (
    SERVE_EVENT_KINDS,
    EventLog,
    EventQueue,
    ServeEvent,
)
from repro.serve.greedy import GreedyScheduler
from repro.serve.loadgen import ChurnProfile, generate_load
from repro.serve.report import ServeSummary, summarize_serve_run
from repro.serve.service import (
    DECISION_WINDOW,
    DriftDetector,
    RegistryFactory,
    RemediationPolicy,
    SchedulerService,
    ServeDecision,
    ServeEpochTick,
    ServeStats,
)
from repro.serve.top import fetch_varz, render_top, run_top
from repro.serve.wal import (
    RecoveryInfo,
    WriteAheadLog,
    build_service,
    read_wal,
    recover_service,
    service_spec,
)

__all__ = [
    "DECISION_WINDOW",
    "SERVE_EVENT_KINDS",
    "AdmissionController",
    "AdmissionOutcome",
    "ChurnProfile",
    "DriftDetector",
    "EventLog",
    "EventQueue",
    "GreedyScheduler",
    "IncrementalPlanner",
    "RecoveryInfo",
    "RegistryFactory",
    "RemediationPolicy",
    "SchedulerService",
    "ServeDecision",
    "ServeEpochTick",
    "ServeEvent",
    "ServeStats",
    "ServeSummary",
    "WriteAheadLog",
    "approx_preference",
    "build_service",
    "fetch_varz",
    "generate_load",
    "parse_priority_map",
    "read_wal",
    "recover_service",
    "render_top",
    "run_top",
    "service_spec",
    "summarize_serve_run",
]
