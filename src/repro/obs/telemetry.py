"""Process-wide telemetry: phase timers, counters, events, profiling.

The :class:`Telemetry` registry is the run record of the whole
pipeline: what happened over the run, written as JSONL events for
``repro report``/``repro trace``.  (The live scrape surface is the
separate :class:`repro.obs.metrics.MetricsRegistry`; nothing is mirrored
between the two.)  Instrumented code does::

    from repro.obs import telemetry

    with telemetry.span("pamo.fit_outcomes"):
        ...
    telemetry.counter("pamo.tx_cache.hit")
    telemetry.event("bo.iteration", iteration=3, batch_best=z)

and pays (almost) nothing unless someone called
:meth:`Telemetry.enable` — the disabled path is one attribute load and
a branch per call, with a shared no-op span object, so hot loops can be
instrumented unconditionally (guarded by the
``benchmarks/test_telemetry_overhead.py`` <2% budget).

Concepts
--------
* **Spans** are hierarchical wall-clock timers.  Nested spans record
  under their slash-joined path (``pamo.optimize/pamo.bo_loop``), so a
  report shows *where inside what* the time went.  Each span completion
  also emits a ``span`` event to the sink, and :meth:`Telemetry.report`
  gives each path's p50/p95 over its last
  :data:`~repro.obs.metrics.DECISION_WINDOW` completions (a
  :class:`~repro.obs.metrics.RollingWindow`).
* **Counters** are monotonic (``counter``); **gauges** are
  last-value-wins (``gauge``).
* **Events** are structured records appended to the configured
  :class:`~repro.obs.sinks.EventSink` (JSONL on disk for CLI runs).
* **Profiling** is opt-in per registry: with ``profile=True`` each
  *outermost* span runs under :mod:`cProfile` and the aggregate top
  functions appear in :meth:`report`.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
import time
import uuid
from typing import Any

from repro.obs.metrics import RollingWindow
from repro.obs.sinks import EventSink, JsonlSink, MemorySink, NullSink

__all__ = ["Telemetry", "telemetry", "new_trace_id", "new_span_id"]


def new_trace_id() -> str:
    """Fresh 32-hex-char trace identifier."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """Fresh 16-hex-char span identifier."""
    return uuid.uuid4().hex[:16]


class _NullSpan:
    """Shared no-op context manager returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span: times its block and folds stats into the registry."""

    __slots__ = (
        "_telemetry",
        "name",
        "path",
        "span_id",
        "parent_id",
        "_t0",
        "_wall0",
        "_profiler",
    )

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self.name = name
        self.path = name
        self.span_id = new_span_id()
        self.parent_id: str | None = None
        self._t0 = 0.0
        self._wall0 = 0.0
        self._profiler: cProfile.Profile | None = None

    def __enter__(self) -> "_Span":
        self._telemetry._span_enter(self)
        self._wall0 = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._t0
        self._telemetry._span_exit(self, elapsed)
        return False


def _new_stats() -> dict[str, float]:
    return {"count": 0, "total_s": 0.0, "min_s": float("inf"), "max_s": 0.0}


class Telemetry:
    """Registry of spans, counters, gauges, and an event sink.

    Disabled by default: every public instrumentation call checks
    :attr:`enabled` first and returns immediately, so library code can
    instrument unconditionally.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._sink: EventSink = NullSink()
        self._profile = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._spans: dict[str, dict[str, float]] = {}
        self._windows: dict[str, RollingWindow] = {}
        self._pstats: pstats.Stats | None = None
        self._profiler_depth = 0
        self._trace_id: str | None = None
        self._pid = os.getpid()

    # -- lifecycle -------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def sink(self) -> EventSink:
        return self._sink

    @property
    def trace_id(self) -> str | None:
        """Trace ID of the current (or most recent) enabled run."""
        return self._trace_id

    def enable(
        self,
        sink: EventSink | str | None = None,
        *,
        profile: bool = False,
    ) -> "Telemetry":
        """Turn recording on.

        ``sink`` may be an :class:`EventSink`, a path (JSONL file), or
        ``None`` to record spans/counters without an event log.
        ``profile=True`` wraps outermost spans in :mod:`cProfile`.

        Every enabled run belongs to a *trace* with a fresh ``trace_id``.
        """
        if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
            sink = JsonlSink(sink)
        self._sink = sink if sink is not None else NullSink()
        self._profile = bool(profile)
        self._trace_id = new_trace_id()
        self._pid = os.getpid()
        self._enabled = True
        self.event("trace.start", trace_id=self._trace_id, pid=self._pid)
        return self

    def disable(self) -> "Telemetry":
        """Stop recording and release the sink (accumulated stats stay)."""
        self._enabled = False
        self._sink.flush()
        self._sink.close()
        self._sink = NullSink()
        return self

    def reset(self) -> "Telemetry":
        """Clear all accumulated counters, gauges, spans, and profiles."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._spans.clear()
            self._windows.clear()
            self._pstats = None
        return self

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list[tuple[str, str]]:
        """Per-thread stack of (name, span_id) for the open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str):
        """Context manager timing a phase; nests into slash-joined paths."""
        if not self._enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def _span_enter(self, span: _Span) -> None:
        stack = self._stack()
        if stack:
            span.path = "/".join([f[0] for f in stack] + [span.name])
            span.parent_id = stack[-1][1]
        else:
            span.path = span.name
        stack.append((span.name, span.span_id))
        if self._profile:
            with self._lock:
                outermost = self._profiler_depth == 0
                self._profiler_depth += 1
            if outermost:
                span._profiler = cProfile.Profile()
                span._profiler.enable()

    def _span_exit(self, span: _Span, elapsed: float) -> None:
        if span._profiler is not None:
            span._profiler.disable()
        with self._lock:
            if self._profile:
                self._profiler_depth -= 1
                if span._profiler is not None:
                    stats = pstats.Stats(span._profiler)
                    if self._pstats is None:
                        self._pstats = stats
                    else:
                        self._pstats.add(stats)
            st = self._spans.setdefault(span.path, _new_stats())
            st["count"] += 1
            st["total_s"] += elapsed
            st["min_s"] = min(st["min_s"], elapsed)
            st["max_s"] = max(st["max_s"], elapsed)
            window = self._windows.get(span.path)
            if window is None:
                window = self._windows[span.path] = RollingWindow()
            window.observe(elapsed)
        stack = self._stack()
        if stack and stack[-1][0] == span.name:
            stack.pop()
        self.event(
            "span",
            span=span.path,
            name=span.name,
            duration_s=elapsed,
            start_ts=span._wall0,
            trace_id=self._trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            tid=threading.get_ident(),
        )

    # -- counters / gauges ----------------------------------------------
    def counter(self, name: str, inc: float = 1) -> None:
        """Add ``inc`` to the monotonic counter ``name``."""
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    # -- structured events ----------------------------------------------
    def event(self, kind: str, /, **fields: Any) -> None:
        """Append a structured record to the sink (no-op when disabled)."""
        if not self._enabled:
            return
        self._sink.emit({"event": kind, "ts": time.time(), "pid": self._pid, **fields})

    def emit_summary(self, **extra: Any) -> None:
        """Emit a ``run.summary`` event holding the full :meth:`report`.

        Makes a JSONL event log self-contained for ``repro report``:
        counters, gauges, and span stats (with percentiles) land next
        to the per-iteration events.
        """
        if not self._enabled:
            return
        self.event(
            "run.summary", trace_id=self._trace_id, report=self.report(), **extra
        )
        self.flush()

    def flush(self) -> None:
        self._sink.flush()

    # -- reporting -------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of counters/gauges/spans, for delta reports."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "spans": {k: dict(v) for k, v in self._spans.items()},
            }

    def report(self, *, since: dict[str, Any] | None = None) -> dict[str, Any]:
        """Summary dict of everything recorded (JSON-safe).

        Span stats include ``p50_s``/``p95_s`` over each path's last
        :data:`~repro.obs.metrics.DECISION_WINDOW` completions.  With
        ``since`` (a :meth:`snapshot`), counters and span count/total
        become deltas — min/max and the percentiles stay absolute, which
        is the honest choice since extrema and windowed quantiles cannot
        be un-mixed.
        """
        snap = self.snapshot()
        with self._lock:
            for k, st in snap["spans"].items():
                window = self._windows.get(k)
                if window:
                    st["p50_s"] = window.percentile(0.50)
                    st["p95_s"] = window.percentile(0.95)
        if since is not None:
            base_c = since.get("counters", {})
            snap["counters"] = {
                k: v - base_c.get(k, 0)
                for k, v in snap["counters"].items()
                if v != base_c.get(k, 0)
            }
            base_s = since.get("spans", {})
            spans: dict[str, dict[str, float]] = {}
            for k, v in snap["spans"].items():
                b = base_s.get(k)
                if b is None:
                    spans[k] = v
                    continue
                if v["count"] == b["count"]:
                    continue
                d = dict(v)
                d["count"] = v["count"] - b["count"]
                d["total_s"] = v["total_s"] - b["total_s"]
                spans[k] = d
            snap["spans"] = spans
        out: dict[str, Any] = {
            "enabled": self._enabled,
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "spans": snap["spans"],
        }
        if self._pstats is not None and since is None:
            out["profile"] = {"top": _top_functions(self._pstats)}
        return out


def _top_functions(stats: pstats.Stats, n: int = 20) -> list[dict[str, Any]]:
    """Top-``n`` functions by cumulative time from aggregated pstats."""
    rows = []
    for (filename, lineno, func), (cc, nc, tt, ct, _) in stats.stats.items():
        rows.append(
            {
                "function": f"{filename}:{lineno}({func})",
                "ncalls": int(nc),
                "tottime_s": float(tt),
                "cumtime_s": float(ct),
            }
        )
    rows.sort(key=lambda r: r["cumtime_s"], reverse=True)
    return rows[:n]


#: The process-wide registry all instrumented code records into.
telemetry = Telemetry()
