"""Metrics exposition: Prometheus text + JSON over a stdlib HTTP thread.

:func:`render_prometheus` turns the snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` collects from its sources
into the Prometheus text exposition format (version 0.0.4 — ``# HELP`` /
``# TYPE`` headers, ``_bucket{le=...}`` / ``_sum`` / ``_count``
histogram series), and :class:`MetricsServer` serves it from a daemon
thread so a live ``repro serve run`` is scrapeable without touching the
event loop:

* ``GET /metrics`` — Prometheus text format;
* ``GET /healthz`` — JSON health document (``status`` plus active
  alerts); HTTP 200 while ``ok``/``degraded``, 503 once ``unhealthy``
  (load balancers should stop sending before the operator pages);
* ``GET /varz``   — one JSON blob with everything: the full registry
  snapshot, the health document (whose snapshot carries the windowed
  percentiles), and the owner's service stats.  This is what
  ``repro serve top`` polls.

Everything is stdlib (:mod:`http.server`), bound to ``127.0.0.1`` by
default, and ``port=0`` asks the kernel for an ephemeral port — the
pattern every test uses to avoid collisions.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.obs.metrics import MetricsRegistry

__all__ = ["CONTENT_TYPE_LATEST", "MetricsServer", "render_prometheus"]

#: Content type of the Prometheus text exposition format.
CONTENT_TYPE_LATEST = "text/plain; version=0.0.4; charset=utf-8"


def _fmt(value: float) -> str:
    """Prometheus sample-value formatting (integers without ``.0``)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every series of ``registry`` as Prometheus text format.

    Reads each snapshot once, so a histogram's lines come from one
    point-in-time dict (its ``+Inf`` bucket is its ``_count``).
    """
    lines: list[str] = []
    for name, snap in registry.collect():
        kind = snap["type"]
        if snap["help"]:
            lines.append(f"# HELP {name} {snap['help']}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            for bound, cumulative in snap["buckets"]:
                le = bound if bound == "+Inf" else _fmt(bound)
                lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{name}_sum {_fmt(snap['sum'])}")
            lines.append(f"{name}_count {snap['count']}")
        else:
            lines.append(f"{name} {_fmt(snap['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz, /varz; everything else is 404."""

    server_version = "repro-metrics/1"
    server: "_HTTPServer"

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                body = render_prometheus(self.server.registry).encode()
                self._respond(200, CONTENT_TYPE_LATEST, body)
            elif path == "/healthz":
                health = self.server.health_fn()
                code = 503 if health.get("status") == "unhealthy" else 200
                self._respond_json(code, health)
            elif path == "/varz":
                self._respond_json(
                    200,
                    {
                        "metrics": self.server.registry.to_dict(),
                        "health": self.server.health_fn(),
                        "service": self.server.varz_fn(),
                    },
                )
            else:
                self._respond_json(404, {"error": f"no route {path!r}"})
        except Exception as exc:  # noqa: BLE001 — a scrape must never kill the server
            try:
                self._respond_json(500, {"error": repr(exc)})
            except OSError:
                pass  # client hung up mid-response

    def _respond(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, code: int, doc: dict[str, Any]) -> None:
        self._respond(
            code,
            "application/json",
            json.dumps(doc, sort_keys=True, default=str).encode(),
        )

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stay off stderr


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Serve-loop restarts (tests, checkpoints) rebind quickly.
    allow_reuse_address = True

    def __init__(self, addr, registry, health_fn, varz_fn) -> None:
        super().__init__(addr, _Handler)
        self.registry = registry
        self.health_fn = health_fn
        self.varz_fn = varz_fn


class MetricsServer:
    """A scrape endpoint for one registry, in a background thread.

    ``health`` and ``varz`` are zero-argument callables evaluated per
    request (so the serve loop stays the single writer of its own
    state); both default to static empty documents.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        health: Callable[[], dict[str, Any]] | None = None,
        varz: Callable[[], dict[str, Any]] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.host = host
        self.requested_port = int(port)
        self._health = health or (lambda: {"status": "ok", "alerts": []})
        self._varz = varz or (lambda: {})
        self._httpd: _HTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._httpd is None:
            return self.requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> int:
        """Bind and serve from a daemon thread; returns the bound port."""
        if self._httpd is not None:
            return self.port
        self._httpd = _HTTPServer(
            (self.host, self.requested_port), self.registry, self._health, self._varz
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-metrics:{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
