"""Trace reconstruction and Chrome ``trace_event`` export.

Every enabled telemetry run is a *trace*: ``Telemetry.enable`` mints a
trace ID and each completed span carries a span ID plus a parent link.
This module turns such a log back into structure:

* :func:`load_events` — parse a JSONL event log (tolerates a torn final
  line from a crashed run);
* :func:`build_span_forest` — reconstruct the span tree(s) from span
  IDs / parent links;
* :func:`orphan_parent_ids` — parent IDs referenced but never defined
  (should be empty for a complete log);
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — convert to the
  Chrome ``trace_event`` JSON format, viewable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = [
    "SpanNode",
    "load_events",
    "build_span_forest",
    "orphan_parent_ids",
    "trace_ids",
    "to_chrome_trace",
    "write_chrome_trace",
]


def load_events(path) -> list[dict[str, Any]]:
    """Parse a JSONL telemetry event log into a list of record dicts.

    Reads across rotated segments (``path.N`` ... ``path.1``, then
    ``path`` — see :class:`repro.obs.sinks.JsonlSink` rotation), so a
    trace reconstructed from a size-rotated log is still one tree.
    Blank lines are skipped; a malformed (torn) final line — the
    signature of a run killed mid-write — is dropped rather than fatal.
    """
    from repro.obs.sinks import iter_jsonl_records, jsonl_segments

    if not jsonl_segments(path):
        raise FileNotFoundError(path)
    return list(iter_jsonl_records(path))


@dataclass
class SpanNode:
    """One completed span in a reconstructed trace tree."""

    span_id: str
    name: str
    path: str
    duration_s: float
    start_ts: float
    pid: int | None = None
    parent_id: str | None = None
    trace_id: str | None = None
    children: list["SpanNode"] = field(default_factory=list)

    def walk(self) -> Iterable["SpanNode"]:
        """Yield this node then all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _span_events(events: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    return [
        e
        for e in events
        if e.get("event") == "span" and e.get("span_id") and "duration_s" in e
    ]


def build_span_forest(events: Sequence[dict[str, Any]]) -> list[SpanNode]:
    """Reconstruct span trees from a (possibly multi-process) event log.

    Returns the root nodes (spans with no parent, or whose parent never
    completed in this log), children sorted by start time: one root per
    top-level span of each run in the log.
    """
    nodes: dict[str, SpanNode] = {}
    for e in _span_events(events):
        sid = str(e["span_id"])
        nodes[sid] = SpanNode(
            span_id=sid,
            name=str(e.get("name") or str(e.get("span", "")).rsplit("/", 1)[-1]),
            path=str(e.get("span", e.get("name", ""))),
            duration_s=float(e["duration_s"]),
            start_ts=float(e.get("start_ts", e.get("ts", 0.0) - e["duration_s"])),
            pid=e.get("pid"),
            parent_id=e.get("parent_id") or None,
            trace_id=e.get("trace_id"),
        )
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.start_ts)
    roots.sort(key=lambda n: n.start_ts)
    return roots


def orphan_parent_ids(events: Sequence[dict[str, Any]]) -> set[str]:
    """Parent span IDs referenced by spans but not defined in the log.

    A complete log has none; anything returned here points at a span
    whose enclosing span never completed (a crashed or truncated run).
    """
    spans = _span_events(events)
    known = {str(e["span_id"]) for e in spans}
    return {
        str(e["parent_id"])
        for e in spans
        if e.get("parent_id") and str(e["parent_id"]) not in known
    }


def trace_ids(events: Sequence[dict[str, Any]]) -> list[str]:
    """Distinct trace IDs seen in the log, in first-seen order."""
    seen: dict[str, None] = {}
    for e in events:
        tid = e.get("trace_id")
        if tid:
            seen.setdefault(str(tid), None)
    return list(seen)


def to_chrome_trace(events: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """Convert an event log to Chrome ``trace_event`` JSON (dict form).

    Spans become complete ("X") events with microsecond timestamps
    relative to the earliest record; other telemetry events become
    instant ("i") marks, so BO iterations and diagnostics line up with
    the span lanes in Perfetto.  Per-process metadata names each lane.
    """
    spans = _span_events(events)
    starts = [float(e.get("start_ts", e.get("ts", 0.0))) for e in spans]
    starts += [float(e["ts"]) for e in events if "ts" in e]
    t0 = min(starts) if starts else 0.0

    trace_events: list[dict[str, Any]] = []
    pids: dict[int, str] = {}
    for e in events:
        if e.get("event") == "trace.start" and e.get("pid") is not None:
            tag = str(e.get("trace_id", ""))[:8]
            pids[int(e["pid"])] = f"repro (trace {tag}, pid {e['pid']})"

    for e in spans:
        start = float(e.get("start_ts", e.get("ts", 0.0) - e["duration_s"]))
        trace_events.append(
            {
                "name": str(e.get("name") or e.get("span")),
                "cat": "span",
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": float(e["duration_s"]) * 1e6,
                "pid": int(e.get("pid", 0) or 0),
                "tid": int(e.get("tid", 0) or 0),
                "args": {
                    "path": e.get("span"),
                    "span_id": e.get("span_id"),
                    "parent_id": e.get("parent_id"),
                    "trace_id": e.get("trace_id"),
                },
            }
        )
    for e in events:
        kind = e.get("event")
        if kind in (None, "span"):
            continue
        args = {k: v for k, v in e.items() if k not in ("event", "ts", "pid", "tid")}
        trace_events.append(
            {
                "name": str(kind),
                "cat": "event",
                "ph": "i",
                "s": "p",
                "ts": (float(e.get("ts", t0)) - t0) * 1e6,
                "pid": int(e.get("pid", 0) or 0),
                "tid": int(e.get("tid", 0) or 0),
                "args": args,
            }
        )
    for pid, label in pids.items():
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[dict[str, Any]], path) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(to_chrome_trace(events)))
    return out
