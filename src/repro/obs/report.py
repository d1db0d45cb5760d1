"""Run analysis: summarize and compare telemetry event logs.

``repro report run.jsonl`` turns a JSONL telemetry log into a run
summary — span time tree, BO convergence curve, top counters, and the
domain diagnostics tables (GP health, preference fidelity, constraint
pressure) — rendered as text, JSON, or Markdown.

``repro compare baseline.jsonl candidate.jsonl --threshold 10%`` diffs
two runs on wall time, BO iteration count, and final benefit, and
reports a *regression* when the candidate is worse by more than the
threshold — the CI perf gate exits non-zero on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.obs.metrics import percentile
from repro.obs.trace import (
    SpanNode,
    build_span_forest,
    load_events,
    orphan_parent_ids,
    trace_ids,
)

__all__ = [
    "RunSummary",
    "summarize_events",
    "summarize_file",
    "render_text",
    "render_markdown",
    "to_json",
    "MetricDelta",
    "CompareResult",
    "parse_threshold",
    "compare_runs",
    "compare_files",
]

#: Absolute wall-time slack (seconds) absorbing scheduler/timer noise on
#: very short runs; the relative threshold dominates for long ones.
WALL_TIME_SLACK_S = 0.25


@dataclass
class RunSummary:
    """Everything ``repro report`` knows about one telemetry log."""

    trace_id: str | None = None
    method: str | None = None
    seed: int | None = None
    wall_time_s: float = 0.0
    n_iterations: int = 0
    converged: bool | None = None
    final_benefit: float | None = None
    n_dm_queries: int | None = None
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict[str, float]] = field(default_factory=dict)
    iterations: list[dict[str, Any]] = field(default_factory=list)
    gp_diagnostics: list[dict[str, Any]] = field(default_factory=list)
    pref_diagnostics: list[dict[str, Any]] = field(default_factory=list)
    roots: list[SpanNode] = field(default_factory=list)
    orphan_parents: list[str] = field(default_factory=list)
    n_events: int = 0


def _aggregate_spans_from_events(
    events: Sequence[dict[str, Any]]
) -> dict[str, dict[str, float]]:
    """Span stats from raw span events (logs without a ``run.summary``).

    Percentiles are exact over every completion, with the same linear
    interpolation (:func:`~repro.obs.metrics.percentile`) as every other
    report surface.
    """
    durations: dict[str, list[float]] = {}
    for e in events:
        if e.get("event") == "span" and "duration_s" in e:
            durations.setdefault(str(e.get("span", e.get("name", "?"))), []).append(
                float(e["duration_s"])
            )
    spans: dict[str, dict[str, float]] = {}
    for path, ds in durations.items():
        ds.sort()
        spans[path] = {
            "count": len(ds),
            "total_s": sum(ds),
            "min_s": ds[0],
            "max_s": ds[-1],
            "p50_s": percentile(ds, 0.50),
            "p95_s": percentile(ds, 0.95),
        }
    return spans


def summarize_events(events: Sequence[dict[str, Any]]) -> RunSummary:
    """Build a :class:`RunSummary` from parsed telemetry events."""
    s = RunSummary(n_events=len(events))
    tids = trace_ids(events)
    s.trace_id = tids[0] if tids else None

    for e in events:
        kind = e.get("event")
        if kind == "bo.iteration":
            s.iterations.append(e)
        elif kind == "gp.diagnostics":
            s.gp_diagnostics.append(e)
        elif kind == "pref.diagnostics":
            s.pref_diagnostics.append(e)
        elif kind == "optimize.done":
            s.method = e.get("method", s.method)
            s.seed = e.get("seed", s.seed)
            outcome = e.get("outcome") or {}
            s.converged = outcome.get("converged", s.converged)
            s.n_dm_queries = outcome.get("n_dm_queries", s.n_dm_queries)
            decision = outcome.get("decision") or {}
            if decision.get("benefit") is not None:
                s.final_benefit = float(decision["benefit"])
        elif kind == "run.summary":
            report = e.get("report") or {}
            s.counters = dict(report.get("counters", {}))
            s.gauges = dict(report.get("gauges", {}))
            s.spans = dict(report.get("spans", {}))

    s.iterations.sort(key=lambda e: e.get("iteration", 0))
    s.n_iterations = len(s.iterations)
    if s.final_benefit is None and s.iterations:
        last = s.iterations[-1]
        if last.get("incumbent_benefit") is not None:
            s.final_benefit = float(last["incumbent_benefit"])
    if not s.counters and s.iterations:
        # pre-run.summary logs: bo.iteration embeds cumulative counters
        s.counters = dict(s.iterations[-1].get("counters") or {})
    if not s.spans:
        s.spans = _aggregate_spans_from_events(events)

    s.roots = build_span_forest(events)
    s.orphan_parents = sorted(orphan_parent_ids(events))
    s.wall_time_s = sum(r.duration_s for r in s.roots)
    if s.wall_time_s == 0.0:
        ts = [float(e["ts"]) for e in events if "ts" in e]
        s.wall_time_s = (max(ts) - min(ts)) if len(ts) > 1 else 0.0
    return s


def summarize_file(path) -> RunSummary:
    """:func:`summarize_events` over a JSONL log on disk."""
    return summarize_events(load_events(path))


# ---------------------------------------------------------------------------
# rendering


def _fmt_s(v: float) -> str:
    return f"{v * 1e3:.1f}ms" if v < 1.0 else f"{v:.3f}s"


def _span_tree_rows(summary: RunSummary) -> list[tuple[str, dict[str, float]]]:
    """(indented label, stats) rows: aggregate paths, indented by depth."""
    rows = []
    for path in sorted(summary.spans):
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        rows.append(("  " * depth + name, summary.spans[path]))
    return rows


def _convergence_lines(summary: RunSummary, width: int = 32) -> list[str]:
    its = summary.iterations
    vals = [e.get("incumbent_benefit") for e in its]
    vals = [float(v) for v in vals if v is not None]
    if not vals:
        return []
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or 1.0
    lines = []
    for e, v in zip(its, vals):
        bar = "#" * max(1, int(round((v - lo) / span * width)))
        acq = e.get("acquisition_value")
        acq_s = f"  acq={acq:.4g}" if isinstance(acq, (int, float)) else ""
        lines.append(
            f"  iter {e.get('iteration', '?'):>3}  "
            f"best={v:+.4f}  {bar}{acq_s}"
        )
    return lines


def _diagnostics_rows(summary: RunSummary) -> list[dict[str, Any]]:
    """One row per BO iteration joining preference + GP diagnostics."""
    pref_by_iter = {
        e.get("iteration"): e for e in summary.pref_diagnostics
    }
    rows = []
    for e in summary.iterations:
        i = e.get("iteration")
        pref = pref_by_iter.get(i, {})
        rows.append(
            {
                "iteration": i,
                "batch_benefit": e.get("batch_benefit"),
                "incumbent_benefit": e.get("incumbent_benefit"),
                "acquisition_value": e.get("acquisition_value"),
                "kendall_tau": pref.get("kendall_tau"),
                "n_comparisons": pref.get("n_comparisons"),
                "t_iteration_s": e.get("t_iteration_s"),
            }
        )
    return rows


def _num(v: Any, fmt: str = "{:+.4f}") -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return str(v)
    try:
        return fmt.format(float(v))
    except (TypeError, ValueError):
        return str(v)


def to_json(summary: RunSummary) -> dict[str, Any]:
    """JSON-safe dict of the summary (machine-readable report)."""
    return {
        "trace_id": summary.trace_id,
        "method": summary.method,
        "seed": summary.seed,
        "wall_time_s": summary.wall_time_s,
        "n_iterations": summary.n_iterations,
        "converged": summary.converged,
        "final_benefit": summary.final_benefit,
        "n_dm_queries": summary.n_dm_queries,
        "n_events": summary.n_events,
        "orphan_parents": summary.orphan_parents,
        "counters": summary.counters,
        "gauges": summary.gauges,
        "spans": summary.spans,
        "iterations": [
            {
                k: e.get(k)
                for k in (
                    "iteration",
                    "batch_benefit",
                    "incumbent_benefit",
                    "acquisition_value",
                    "pool_size",
                    "batch_size",
                    "t_select_s",
                    "t_observe_s",
                    "t_model_update_s",
                    "t_iteration_s",
                )
            }
            for e in summary.iterations
        ],
        "gp_diagnostics": [
            {k: e.get(k) for k in ("iteration", "phase", "objectives")}
            for e in summary.gp_diagnostics
        ],
        "pref_diagnostics": [
            {
                k: e.get(k)
                for k in ("iteration", "n_comparisons", "n_items", "kendall_tau")
            }
            for e in summary.pref_diagnostics
        ],
    }


def render_text(summary: RunSummary, *, top_counters: int = 12) -> str:
    """Human-readable run report."""
    out: list[str] = []
    out.append(f"trace    {summary.trace_id or '(none)'}")
    if summary.method:
        seed = f"  seed {summary.seed}" if summary.seed is not None else ""
        out.append(f"method   {summary.method}{seed}")
    out.append(f"wall     {_fmt_s(summary.wall_time_s)}")
    conv = "" if summary.converged is None else (
        "  (converged)" if summary.converged else "  (hit iteration cap)"
    )
    out.append(f"iters    {summary.n_iterations}{conv}")
    if summary.final_benefit is not None:
        out.append(f"benefit  {summary.final_benefit:+.4f}")
    if summary.n_dm_queries is not None:
        out.append(f"queries  {summary.n_dm_queries} decision-maker comparisons")
    if summary.orphan_parents:
        out.append(
            f"WARNING  {len(summary.orphan_parents)} orphaned parent span IDs "
            "(incomplete merge?)"
        )

    if summary.spans:
        out.append("")
        out.append("span tree (total / count / p50 / p95):")
        for label, st in _span_tree_rows(summary):
            p50 = st.get("p50_s")
            p95 = st.get("p95_s")
            pct = (
                f"  p50={_fmt_s(p50)} p95={_fmt_s(p95)}"
                if p50 is not None and p95 is not None
                else ""
            )
            out.append(
                f"  {label:<40} {_fmt_s(st.get('total_s', 0.0)):>10} "
                f"x{int(st.get('count', 0)):<5}{pct}"
            )

    curve = _convergence_lines(summary)
    if curve:
        out.append("")
        out.append("convergence (incumbent benefit per iteration):")
        out.extend(curve)

    rows = _diagnostics_rows(summary)
    if rows:
        out.append("")
        out.append("diagnostics per iteration:")
        out.append(
            "  iter   batch      incumbent  acq        kendall_tau  comparisons"
        )
        for r in rows:
            out.append(
                f"  {str(r['iteration']):>4}   "
                f"{_num(r['batch_benefit']):>9}  "
                f"{_num(r['incumbent_benefit']):>9}  "
                f"{_num(r['acquisition_value'], '{:.4g}'):>9}  "
                f"{_num(r['kendall_tau'], '{:.3f}'):>11}  "
                f"{_num(r['n_comparisons'], '{:.0f}'):>11}"
            )

    if summary.gp_diagnostics:
        last = summary.gp_diagnostics[-1]
        objectives = last.get("objectives") or {}
        if objectives:
            out.append("")
            out.append(f"outcome GPs (latest, phase={last.get('phase')}):")
            for name, d in objectives.items():
                ells = d.get("lengthscales")
                ell_s = (
                    "/".join(f"{v:.3g}" for v in ells) if ells else "-"
                )
                out.append(
                    f"  {name:<4} ell={ell_s:<16} "
                    f"scale={_num(d.get('outputscale'), '{:.3g}'):<8} "
                    f"noise={_num(d.get('noise'), '{:.2e}'):<9} "
                    f"lml={_num(d.get('log_marginal_likelihood'), '{:.2f}'):<9} "
                    f"rmse={_num(d.get('holdout_rmse'), '{:.4g}')}"
                )

    if summary.counters:
        out.append("")
        out.append("top counters:")
        ranked = sorted(summary.counters.items(), key=lambda kv: -kv[1])
        for k, v in ranked[:top_counters]:
            out.append(f"  {k:<36} {v:>12g}")
    return "\n".join(out)


def render_markdown(summary: RunSummary, *, top_counters: int = 12) -> str:
    """Markdown run report (tables for spans, diagnostics, counters)."""
    out: list[str] = []
    out.append(f"# Run report — trace `{summary.trace_id or '(none)'}`")
    out.append("")
    out.append("| field | value |")
    out.append("|---|---|")
    out.append(f"| method | {summary.method or '-'} |")
    out.append(f"| seed | {summary.seed if summary.seed is not None else '-'} |")
    out.append(f"| wall time | {_fmt_s(summary.wall_time_s)} |")
    out.append(f"| BO iterations | {summary.n_iterations} |")
    out.append(f"| converged | {summary.converged} |")
    out.append(f"| final benefit | {_num(summary.final_benefit)} |")
    if summary.spans:
        out.append("")
        out.append("## Span tree")
        out.append("")
        out.append("| span | total | count | p50 | p95 |")
        out.append("|---|---:|---:|---:|---:|")
        for label, st in _span_tree_rows(summary):
            p50, p95 = st.get("p50_s"), st.get("p95_s")
            out.append(
                f"| `{label.replace('  ', '&nbsp;&nbsp;')}` "
                f"| {_fmt_s(st.get('total_s', 0.0))} | {int(st.get('count', 0))} "
                f"| {_fmt_s(p50) if p50 is not None else '-'} "
                f"| {_fmt_s(p95) if p95 is not None else '-'} |"
            )
    rows = _diagnostics_rows(summary)
    if rows:
        out.append("")
        out.append("## Diagnostics per iteration")
        out.append("")
        out.append(
            "| iter | batch benefit | incumbent | acq value | Kendall-τ "
            "| comparisons |"
        )
        out.append("|---:|---:|---:|---:|---:|---:|")
        for r in rows:
            out.append(
                f"| {r['iteration']} | {_num(r['batch_benefit'])} "
                f"| {_num(r['incumbent_benefit'])} "
                f"| {_num(r['acquisition_value'], '{:.4g}')} "
                f"| {_num(r['kendall_tau'], '{:.3f}')} "
                f"| {_num(r['n_comparisons'], '{:.0f}')} |"
            )
    if summary.counters:
        out.append("")
        out.append("## Top counters")
        out.append("")
        out.append("| counter | value |")
        out.append("|---|---:|")
        for k, v in sorted(summary.counters.items(), key=lambda kv: -kv[1])[
            :top_counters
        ]:
            out.append(f"| `{k}` | {v:g} |")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# comparison


@dataclass
class MetricDelta:
    """One compared metric between baseline and candidate."""

    name: str
    baseline: float | None
    candidate: float | None
    regressed: bool
    detail: str = ""


@dataclass
class CompareResult:
    """Outcome of ``repro compare``: per-metric rows + overall verdict."""

    threshold: float
    metrics: list[MetricDelta] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(m.regressed for m in self.metrics)


def parse_threshold(text: str) -> float:
    """'10%' → 0.10; '0.1' → 0.1.  Raises ValueError on junk."""
    text = str(text).strip()
    if text.endswith("%"):
        value = float(text[:-1]) / 100.0
    else:
        value = float(text)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"threshold must be a non-negative fraction, got {text!r}")
    return value


def compare_runs(
    baseline: RunSummary, candidate: RunSummary, *, threshold: float = 0.10
) -> CompareResult:
    """Diff two runs; a metric regresses when the candidate is worse by
    more than ``threshold`` (relative).

    * wall time: worse = slower; an absolute slack of
      :data:`WALL_TIME_SLACK_S` absorbs timer noise on sub-second runs;
    * BO iterations: worse = more iterations to finish;
    * final benefit: worse = lower, measured against ``|baseline|``.
    """
    result = CompareResult(threshold=threshold)

    base_w, cand_w = baseline.wall_time_s, candidate.wall_time_s
    wall_regressed = (cand_w - base_w) > max(threshold * base_w, WALL_TIME_SLACK_S)
    result.metrics.append(
        MetricDelta(
            "wall_time_s",
            base_w,
            cand_w,
            wall_regressed,
            detail=f"+{(cand_w - base_w):.3f}s"
            if cand_w >= base_w
            else f"-{(base_w - cand_w):.3f}s",
        )
    )

    base_i, cand_i = baseline.n_iterations, candidate.n_iterations
    iter_regressed = base_i > 0 and cand_i > base_i * (1.0 + threshold)
    result.metrics.append(
        MetricDelta(
            "bo_iterations",
            float(base_i),
            float(cand_i),
            iter_regressed,
            detail=f"{cand_i - base_i:+d}",
        )
    )

    base_b, cand_b = baseline.final_benefit, candidate.final_benefit
    if base_b is not None and cand_b is not None:
        scale = max(abs(base_b), 1e-9)
        benefit_regressed = (base_b - cand_b) > threshold * scale
        detail = f"{cand_b - base_b:+.4f}"
    else:
        benefit_regressed = False
        detail = "missing" if (base_b is None) != (cand_b is None) else "n/a"
    result.metrics.append(
        MetricDelta("final_benefit", base_b, cand_b, benefit_regressed, detail)
    )
    return result


def compare_files(
    baseline_path, candidate_path, *, threshold: float = 0.10
) -> tuple[CompareResult, RunSummary, RunSummary]:
    """:func:`compare_runs` over two JSONL logs on disk."""
    base = summarize_file(baseline_path)
    cand = summarize_file(candidate_path)
    return compare_runs(base, cand, threshold=threshold), base, cand


def render_compare(result: CompareResult) -> str:
    """Text table of a comparison, one metric per row."""
    out = [
        f"threshold {result.threshold * 100:g}%",
        f"{'metric':<16} {'baseline':>12} {'candidate':>12} "
        f"{'delta':>10}  verdict",
    ]
    for m in result.metrics:
        out.append(
            f"{m.name:<16} {_num(m.baseline, '{:.4f}'):>12} "
            f"{_num(m.candidate, '{:.4f}'):>12} {m.detail:>10}  "
            f"{'REGRESSED' if m.regressed else 'ok'}"
        )
    out.append("result: " + ("REGRESSION" if result.regressed else "PASS"))
    return "\n".join(out)
