"""Serve-run reporting: decision-latency percentiles from a trace log.

A serve run records everything through :mod:`repro.obs` — one
``serve.decision`` event per epoch carrying the decision's
``latency_s``, a ``serve.decision`` span for the time tree, and the
``serve.*`` counters inside the final ``run.summary`` — so the generic
``repro report``/``repro trace`` work unchanged.  This module adds the
serve-specific view: :func:`summarize_serve_run` parses the JSONL
(across rotated segments) into a :class:`ServeSummary` whose headline
p50/p95/p99/max feed the events' ``latency_s`` through the same
:class:`~repro.obs.metrics.RollingWindow` that backs
:meth:`repro.serve.service.SchedulerService.summary` and ``/healthz`` —
so on a run with telemetry on they equal the live numbers exactly —
plus the counter proof of the incremental path
(``full_solves``/``cache_hits``), the benefit trajectory, and any
``alert.*`` events.  The p95 budget gate of the ``serve-smoke`` CI job
is :meth:`ServeSummary.gate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import RollingWindow

__all__ = ["ServeSummary", "summarize_serve_run"]


@dataclass
class ServeSummary:
    """Aggregated view of one serve run's event log."""

    path: str = ""
    trace_id: str | None = None
    epochs: int = 0
    events: int = 0
    full_solves: int = 0
    cache_hits: int = 0
    solved: int = 0
    admission_rejects: int = 0
    repairs: int = 0
    decision_window: int = 0
    decision_p50_s: float = 0.0
    decision_p95_s: float = 0.0
    decision_p99_s: float = 0.0
    decision_max_s: float = 0.0
    decision_mean_s: float = 0.0
    benefit_first: float | None = None
    benefit_last: float | None = None
    n_streams_last: int = 0
    alerts_fired: int = 0
    alerts_resolved: int = 0
    alerts: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    shed: int = 0
    evicted_for_admission: int = 0
    brownout_epochs: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    wal_syncs: int = 0

    @property
    def decision_count(self) -> int:
        """Decisions in the log: one ``serve.decision`` event per epoch."""
        return self.epochs

    @property
    def cache_hit_ratio(self) -> float:
        """Cached decisions / (cached + re-solved); 0 when nothing ran."""
        total = self.cache_hits + self.solved
        return self.cache_hits / total if total else 0.0

    @property
    def benefit_drop_ratio(self) -> float | None:
        """Relative benefit loss first -> last (``None`` without scores).

        Clamped at 0 (a run that *gained* benefit never fails the
        gate); relative to ``|benefit_first|`` so the overload gate
        means "kept at least ``1 - max_drop`` of the warm-up benefit".
        """
        if self.benefit_first is None or self.benefit_last is None:
            return None
        scale = max(abs(self.benefit_first), 1e-12)
        return max(0.0, (self.benefit_first - self.benefit_last) / scale)

    def gate(self, max_p95_s: float) -> bool:
        """True when the p95 decision latency is within budget."""
        return self.decision_count > 0 and self.decision_p95_s <= max_p95_s

    def gate_drop(self, max_drop: float) -> bool:
        """True when the benefit drop stayed within ``max_drop``.

        A run with no benefit trajectory fails (nothing to prove the
        overload was survived).
        """
        drop = self.benefit_drop_ratio
        return drop is not None and drop <= max_drop

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "trace_id": self.trace_id,
            "epochs": self.epochs,
            "events": self.events,
            "full_solves": self.full_solves,
            "cache_hits": self.cache_hits,
            "solved": self.solved,
            "cache_hit_ratio": self.cache_hit_ratio,
            "admission_rejects": self.admission_rejects,
            "repairs": self.repairs,
            "decision_count": self.decision_count,
            "decision_window": self.decision_window,
            "decision_p50_s": self.decision_p50_s,
            "decision_p95_s": self.decision_p95_s,
            "decision_p99_s": self.decision_p99_s,
            "decision_max_s": self.decision_max_s,
            "decision_mean_s": self.decision_mean_s,
            "benefit_first": self.benefit_first,
            "benefit_last": self.benefit_last,
            "n_streams_last": self.n_streams_last,
            "alerts_fired": self.alerts_fired,
            "alerts_resolved": self.alerts_resolved,
            "benefit_drop_ratio": self.benefit_drop_ratio,
            "shed": self.shed,
            "evicted_for_admission": self.evicted_for_admission,
            "brownout_epochs": self.brownout_epochs,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "wal_syncs": self.wal_syncs,
        }

    def render(self) -> str:
        lines = [
            f"serve run: {self.path}",
            f"  trace_id          {self.trace_id or '-'}",
            f"  epochs            {self.epochs}",
            f"  events            {self.events}",
            f"  full solves       {self.full_solves}",
            f"  cache hits        {self.cache_hits}"
            f"  (hit ratio {self.cache_hit_ratio:.1%})",
            f"  re-solved streams {self.solved}",
            f"  admission rejects {self.admission_rejects}",
            f"  repairs           {self.repairs}",
            f"  decision latency  p50 {self.decision_p50_s * 1e3:.3f} ms"
            f" · p95 {self.decision_p95_s * 1e3:.3f} ms"
            f" · p99 {self.decision_p99_s * 1e3:.3f} ms"
            f" · max {self.decision_max_s * 1e3:.3f} ms"
            f" (window {self.decision_window} of {self.decision_count} epochs)",
        ]
        if self.benefit_first is not None:
            lines.append(
                f"  benefit           {self.benefit_first:+.4f} (first)"
                f" -> {self.benefit_last:+.4f} (last)"
                f" · {self.n_streams_last} streams at end"
            )
        if self.shed or self.brownout_epochs or self.breaker_opens:
            lines.append(
                f"  overload          {self.shed} joins shed"
                f" · {self.evicted_for_admission} evicted for admission"
                f" · {self.brownout_epochs} brownout epochs"
                f" · breaker opened {self.breaker_opens}x"
                f" / closed {self.breaker_closes}x"
            )
        if self.alerts_fired or self.alerts_resolved:
            lines.append(
                f"  alerts            {self.alerts_fired} fired"
                f" · {self.alerts_resolved} resolved"
            )
            for a in self.alerts[-5:]:
                lines.append(
                    f"    {a.get('event')}: {a.get('rule')}"
                    f" ({a.get('metric')}={a.get('value'):.4g}"
                    f" vs {a.get('threshold'):.4g}, {a.get('severity')})"
                )
        return "\n".join(lines)


def summarize_serve_run(path) -> ServeSummary:
    """Parse a serve run's JSONL trace into a :class:`ServeSummary`.

    Reads across rotated segments (``path.N`` ... ``path``) and is
    tolerant of partial logs (crashed runs): percentiles come from the
    per-epoch decision events' ``latency_s``, counters prefer the final
    ``run.summary`` but fall back to summing the per-epoch decision
    events.
    """
    from repro.obs.sinks import iter_jsonl_records, jsonl_segments

    path = Path(path)
    if not jsonl_segments(path):
        raise FileNotFoundError(path)
    summary = ServeSummary(path=str(path))
    window = RollingWindow()
    latency_total = 0.0
    benefits: list[float] = []
    epoch_full_solves = epoch_cache_hits = epoch_solved = 0
    epoch_rejects = epoch_events = 0
    epoch_shed = 0
    run_counters: dict | None = None
    for rec in iter_jsonl_records(path):
        kind = rec.get("event")
        if kind == "trace.start" and summary.trace_id is None:
            summary.trace_id = rec.get("trace_id")
        elif kind == "serve.decision":
            summary.epochs += 1
            latency_s = float(rec.get("latency_s", 0.0))
            window.observe(latency_s)
            latency_total += latency_s
            epoch_events += len(rec.get("events", ()))
            epoch_full_solves += bool(rec.get("full_solve"))
            epoch_cache_hits += int(rec.get("cache_hits", 0))
            epoch_solved += int(rec.get("solved", 0))
            epoch_rejects += len(rec.get("rejected", ()))
            epoch_shed += len(rec.get("shed", ()))
            if rec.get("mode") == "brownout":
                summary.brownout_epochs += 1
            if rec.get("benefit") is not None:
                benefits.append(float(rec["benefit"]))
            summary.n_streams_last = int(
                rec.get("n_streams", summary.n_streams_last)
            )
        elif kind == "alert.fired":
            summary.alerts_fired += 1
            summary.alerts.append(rec)
        elif kind == "alert.resolved":
            summary.alerts_resolved += 1
            summary.alerts.append(rec)
        elif kind == "run.summary":
            run_counters = rec.get("report", {}).get("counters", {})
    counters = run_counters if run_counters is not None else {}
    summary.counters = counters
    summary.events = int(counters.get("serve.events", epoch_events))
    summary.full_solves = int(counters.get("serve.full_solves", epoch_full_solves))
    summary.cache_hits = int(counters.get("serve.cache_hits", epoch_cache_hits))
    summary.solved = int(counters.get("serve.solved", epoch_solved))
    summary.admission_rejects = int(
        counters.get("serve.admission_rejects", epoch_rejects)
    )
    summary.repairs = int(counters.get("serve.repairs", 0))
    summary.shed = int(counters.get("admit.shed", epoch_shed))
    summary.evicted_for_admission = int(counters.get("admit.evicted_for", 0))
    summary.breaker_opens = int(counters.get("breaker.opens", 0))
    summary.breaker_closes = int(counters.get("breaker.closes", 0))
    summary.wal_syncs = int(counters.get("wal.syncs", 0))
    summary.decision_window = len(window)
    summary.decision_p50_s = window.percentile(0.50)
    summary.decision_p95_s = window.percentile(0.95)
    summary.decision_p99_s = window.percentile(0.99)
    summary.decision_max_s = window.percentile(1.0)
    summary.decision_mean_s = (
        latency_total / summary.epochs if summary.epochs else 0.0
    )
    if benefits:
        summary.benefit_first = benefits[0]
        summary.benefit_last = benefits[-1]
    return summary
