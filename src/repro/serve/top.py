"""``repro serve top`` — a terminal dashboard for a live serve run.

Polls the JSON ``/varz`` endpoint that ``repro serve run
--metrics-port`` exposes (see :mod:`repro.obs.exposition`) and redraws
an ANSI dashboard: health state, epoch/stream/server gauges, windowed
decision-latency percentiles, cache-hit ratio, the benefit trajectory
as a sparkline, the epoch rate (the change in ``summary.epochs`` between
two polls), and any active alerts.  Everything is stdlib —
:mod:`urllib.request` for the poll, raw ANSI escapes for the redraw —
so it runs over ssh on an edge box with nothing installed.

The renderer (:func:`render_top`) is a pure ``dict -> str`` function;
the tests feed it canned ``/varz`` documents and assert on the text,
and ``--iterations N`` makes the loop itself testable (poll N times,
then exit instead of looping until Ctrl-C).
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any

__all__ = ["fetch_varz", "render_top", "run_top", "sparkline"]

_SPARK = "▁▂▃▄▅▆▇█"
_CLEAR = "\x1b[2J\x1b[H"
_STATUS_COLOR = {"ok": "\x1b[32m", "degraded": "\x1b[33m", "unhealthy": "\x1b[31m"}
_RESET = "\x1b[0m"


def fetch_varz(url: str, *, timeout: float = 2.0) -> dict[str, Any]:
    """GET ``{url}/varz`` and parse the JSON document."""
    with urllib.request.urlopen(f"{url.rstrip('/')}/varz", timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def sparkline(values: list[float], width: int = 40) -> str:
    """Unicode block sparkline of the last ``width`` values."""
    vals = [float(v) for v in values if v is not None][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK[3] * len(vals)
    return "".join(
        _SPARK[min(len(_SPARK) - 1, int((v - lo) / span * len(_SPARK)))]
        for v in vals
    )


def _ms(v: float | None) -> str:
    return "-" if v is None else f"{float(v) * 1e3:.2f}ms"


def render_top(
    varz: dict[str, Any],
    *,
    width: int = 78,
    color: bool = True,
    benefit_history: list[float] | None = None,
    epoch_rate: float | None = None,
) -> str:
    """Render one ``/varz`` document as a dashboard frame.

    ``epoch_rate`` (epochs/s since the previous poll) is drawn when
    given; :func:`run_top` computes it from two consecutive documents.
    """
    health = varz.get("health", {})
    status = health.get("status", "?")
    service = varz.get("service", {})
    snap = service.get("snapshot") or health.get("snapshot") or {}
    summary = service.get("summary", {})

    tint = _STATUS_COLOR.get(status, "") if color else ""
    reset = _RESET if color and tint else ""
    bar = "─" * width
    lines = [
        f"repro serve top · health {tint}{status.upper()}{reset}"
        f" · epoch {snap.get('epoch', '-')}"
        f" · window {snap.get('window', 0)} epochs",
        bar,
        f"streams {snap.get('n_streams', '-'):>6}"
        f"   servers up {snap.get('n_alive_servers', '-'):>3}"
        f"   queue depth {snap.get('queue_depth', '-'):>5}"
        f"   full solves {summary.get('full_solves', '-'):>4}",
        f"decision latency  p50 {_ms(snap.get('decision_p50_s')):>9}"
        f"   p95 {_ms(snap.get('decision_p95_s')):>9}"
        f"   p99 {_ms(snap.get('decision_p99_s')):>9}"
        f"   max {_ms(snap.get('decision_max_s')):>9}",
        f"cache hit ratio   {float(snap.get('cache_hit_ratio') or 0.0):8.1%}"
        f"   epochs {summary.get('epochs', '-'):>6}"
        f"   rejects {summary.get('rejected', '-'):>5}"
        f"   evicted {summary.get('evicted', '-'):>5}",
    ]
    mode = summary.get("mode")
    if mode is not None and (
        mode != "normal"
        or summary.get("shed")
        or summary.get("breaker_state") not in (None, "closed")
        or summary.get("brownout_epochs")
    ):
        warn = _STATUS_COLOR.get("degraded", "") if color else ""
        wreset = _RESET if color and warn else ""
        shown = f"{warn}{mode.upper()}{wreset}" if mode != "normal" else mode
        lines.append(
            f"mode {shown:>13}"
            f"   shed {summary.get('shed', 0):>6}"
            f"   brownout epochs {summary.get('brownout_epochs', 0):>4}"
            f"   breaker {summary.get('breaker_state') or 'off'}"
        )
    benefit = snap.get("benefit")
    if benefit is not None:
        drop = snap.get("benefit_drop_ratio") or 0.0
        lines.append(
            f"benefit {float(benefit):+10.4f}"
            f"   baseline {float(snap.get('benefit_baseline') or 0.0):+10.4f}"
            f"   drop {float(drop):6.1%}"
        )
    if benefit_history:
        lines.append(f"benefit trend     {sparkline(benefit_history, width - 20)}")
    if epoch_rate is not None:
        lines.append(f"epoch rate        {epoch_rate:8.2f}/s")
    alerts = health.get("alerts") or []
    lines.append(bar)
    if alerts:
        lines.append(f"ALERTS ({len(alerts)} firing)")
        for a in alerts:
            lines.append(
                f"  [{a.get('severity', '?'):>9}] {a.get('rule')}:"
                f" {a.get('metric')}={a.get('value'):.4g}"
                f" (threshold {a.get('threshold'):.4g},"
                f" since epoch {a.get('since_epoch')})"
            )
    else:
        lines.append("no alerts firing")
    return "\n".join(lines)


def run_top(
    url: str,
    *,
    interval_s: float = 1.0,
    iterations: int = 0,
    color: bool = True,
    clear: bool = True,
    stream=None,
) -> int:
    """Poll-and-redraw loop; returns a process exit code.

    ``iterations=0`` loops until Ctrl-C (the interactive default);
    ``iterations=N`` draws N frames then exits 0 — the mode tests and
    scripts use.  A run that ends (connection refused) exits 0 after at
    least one successful frame, 1 if the endpoint was never reachable.
    """
    out = stream if stream is not None else sys.stdout
    frames = 0
    benefit_history: list[float] = []
    last: tuple[float, int] | None = None  # (poll time, summary.epochs)
    try:
        while True:
            try:
                varz = fetch_varz(url)
            except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
                if frames:
                    print(f"serve endpoint gone ({exc}); exiting", file=out)
                    return 0
                print(f"error: cannot reach {url}/varz: {exc}", file=out)
                return 1
            now = time.monotonic()
            service = varz.get("service") or {}
            snap = service.get("snapshot") or {}
            if snap.get("benefit") is not None:
                benefit_history.append(float(snap["benefit"]))
            epochs = (service.get("summary") or {}).get("epochs")
            rate = None
            if last is not None and epochs is not None and now > last[0]:
                rate = (epochs - last[1]) / (now - last[0])
            if epochs is not None:
                last = (now, epochs)
            frame = render_top(
                varz,
                color=color,
                benefit_history=benefit_history,
                epoch_rate=rate,
            )
            if clear:
                out.write(_CLEAR)
            out.write(frame + "\n")
            out.flush()
            frames += 1
            if iterations and frames >= iterations:
                return 0
            time.sleep(interval_s)
    except KeyboardInterrupt:
        return 0
