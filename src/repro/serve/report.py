"""Serve-run reporting: the decision tally of a trace log or a live run.

A serve run records everything through :mod:`repro.obs` — one
``serve.decision`` event per epoch carrying the decision's counts and
``latency_s``, a ``serve.decision`` span for the time tree, and the
``serve.*`` counters inside the final ``run.summary`` — so the generic
``repro report``/``repro trace`` work unchanged.  This module adds the
serve-specific view: :func:`summarize_serve_run` parses the JSONL
(across rotated segments) and pushes every ``serve.decision`` record
into the same :class:`~repro.serve.service.ServeStats` tally that
:meth:`repro.serve.service.SchedulerService.summary` and ``/healthz``
read, so every decision-derived count, the windowed latency
percentiles and the windowed cache-hit ratio equal the live numbers
exactly — on a finished run and on a killed one alike.  Only the counts
no decision carries (repairs, evictions for admission, breaker edges,
WAL syncs) come from the ``run.summary`` counters.  ``serve run`` prints
its end-of-run block through the same :meth:`ServeSummary.render`.  The
p95 budget gate of the ``serve-smoke`` CI job is :meth:`ServeSummary.gate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.serve.service import ServeStats

__all__ = ["ServeSummary", "summarize_serve_run"]

#: ``to_dict`` key -> the ``run.summary`` counter it reads: the counts no
#: decision carries.
_RUN_COUNTERS = {
    "repairs": "serve.repairs",
    "evicted_for_admission": "admit.evicted_for",
    "breaker_opens": "breaker.opens",
    "breaker_closes": "breaker.closes",
    "wal_syncs": "wal.syncs",
}


@dataclass
class ServeSummary:
    """One serve run: its decision tally plus what the log adds to it.

    ``counters`` are the ``run.summary`` counters — empty for a killed
    run's log and for a live run, whose rendering then leaves the
    counter-only lines out.
    """

    path: str = ""
    trace_id: str | None = None
    stats: ServeStats = field(default_factory=ServeStats)
    n_streams_last: int = 0
    alerts: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def epochs(self) -> int:
        return self.stats.epochs

    @property
    def decision_count(self) -> int:
        """Decisions in the log: one ``serve.decision`` event per epoch."""
        return self.stats.epochs

    @property
    def decision_p95_s(self) -> float:
        return self.stats.latency.percentile(0.95)

    @property
    def alerts_fired(self) -> int:
        return sum(1 for a in self.alerts if a.get("event") == "alert.fired")

    @property
    def benefit_drop_ratio(self) -> float | None:
        """Relative benefit loss first -> last (``None`` without scores).

        Clamped at 0 (a run that *gained* benefit never fails the
        gate); relative to ``|benefit_first|`` so the overload gate
        means "kept at least ``1 - max_drop`` of the warm-up benefit".
        """
        first, last = self.stats.benefit_first, self.stats.benefit_last
        if first is None or last is None:
            return None
        return max(0.0, (first - last) / max(abs(first), 1e-12))

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
        d = self.stats.to_dict()
        return {
            "path": self.path,
            "trace_id": self.trace_id,
            **d,
            "admission_rejects": d["rejected"],
            "decision_count": d["epochs"],
            "n_streams_last": self.n_streams_last,
            "alerts_fired": self.alerts_fired,
            "alerts_resolved": len(self.alerts) - self.alerts_fired,
            "benefit_drop_ratio": self.benefit_drop_ratio,
            **{
                key: int(self.counters.get(name, 0))
                for key, name in _RUN_COUNTERS.items()
            },
        }

    def render(
        self, *, title: str | None = None, extra: Iterable[tuple[str, object]] = ()
    ) -> str:
        """The text report; ``title`` replaces the first line and each
        ``(label, value)`` of ``extra`` adds a row at the end."""
        d = self.to_dict()
        lines = [
            title or f"serve run: {self.path}",
            f"  trace_id          {self.trace_id or '-'}",
            f"  epochs            {d['epochs']}",
            f"  events            {d['events']}",
            f"  full solves       {d['full_solves']}",
            f"  cache hits        {d['cache_hits']}"
            f"  (window hit ratio {d['cache_hit_ratio']:.1%})",
            f"  re-solved streams {d['solved']}",
            f"  admission rejects {d['rejected']}",
            f"  evicted streams   {d['evicted']}",
        ]
        if self.counters:
            lines.append(f"  repairs           {d['repairs']}")
        lines.append(
            f"  decision latency  p50 {d['decision_p50_s'] * 1e3:.3f} ms"
            f" · p95 {d['decision_p95_s'] * 1e3:.3f} ms"
            f" · p99 {d['decision_p99_s'] * 1e3:.3f} ms"
            f" · max {d['decision_max_s'] * 1e3:.3f} ms"
            f" (window {d['decision_window']} of {d['epochs']} epochs)"
        )
        if d["benefit_first"] is not None:
            lines.append(
                f"  benefit           {d['benefit_first']:+.4f} (first)"
                f" -> {d['benefit_last']:+.4f} (last)"
            )
        lines.append(f"  streams at end    {self.n_streams_last}")
        if d["shed"] or d["brownout_epochs"] or d["breaker_opens"]:
            overload = f"  overload          {d['shed']} joins shed"
            if self.counters:
                overload += f" · {d['evicted_for_admission']} evicted for admission"
            overload += f" · {d['brownout_epochs']} brownout epochs"
            if self.counters:
                overload += (
                    f" · breaker opened {d['breaker_opens']}x"
                    f" / closed {d['breaker_closes']}x"
                )
            lines.append(overload)
        if self.alerts:
            lines.append(
                f"  alerts            {d['alerts_fired']} fired"
                f" · {d['alerts_resolved']} resolved"
            )
            for a in self.alerts[-5:]:
                lines.append(
                    f"    {a.get('event')}: {a.get('rule')}"
                    f" ({a.get('metric')}={a.get('value'):.4g}"
                    f" vs {a.get('threshold'):.4g}, {a.get('severity')})"
                )
        lines.extend(f"  {label:<17} {value}" for label, value in extra)
        return "\n".join(lines)


def summarize_serve_run(path) -> ServeSummary:
    """Parse a serve run's JSONL trace into a :class:`ServeSummary`.

    Reads across rotated segments (``path.N`` ... ``path``) and is
    tolerant of partial logs (crashed runs): every decision-derived
    count comes from the per-epoch ``serve.decision`` events, and only
    the counts no decision carries from the final ``run.summary``.
    """
    from repro.obs.sinks import iter_jsonl_records, jsonl_segments

    path = Path(path)
    if not jsonl_segments(path):
        raise FileNotFoundError(path)
    summary = ServeSummary(path=str(path))
    for rec in iter_jsonl_records(path):
        kind = rec.get("event")
        if kind == "serve.decision":
            summary.stats.push(rec)
            summary.n_streams_last = int(
                rec.get("n_streams", summary.n_streams_last)
            )
        elif kind in ("alert.fired", "alert.resolved"):
            summary.alerts.append(rec)
        elif kind == "trace.start" and summary.trace_id is None:
            summary.trace_id = rec.get("trace_id")
        elif kind == "run.summary":
            summary.counters = rec.get("report", {}).get("counters", {})
    return summary
