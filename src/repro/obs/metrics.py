"""Live metrics: a thread-safe registry of counters, gauges, histograms.

Where :mod:`repro.obs.telemetry` is the run record ("what happened over
the whole run": JSONL events, post-hoc ``repro report``), this module is
the live scrape surface ("what is happening *right now*"): every
instrument is cheap to update from the serve loop and cheap to snapshot
from a scraper thread.

Instruments
-----------
* :class:`Counter` — monotonic total (``..._total`` in Prometheus).
* :class:`Gauge` — last-value-wins instantaneous reading.
* :class:`Histogram` — fixed cumulative buckets plus count and sum: the
  lifetime Prometheus histogram series.

Windowed percentiles
--------------------
* :class:`RollingWindow` — the last :data:`DECISION_WINDOW` values,
  sorted on insert, with exact linear-interpolated percentiles
  (:func:`percentile`).  It is the only windowed-percentile type: the
  serve loop's ``summary()``/``/healthz``/SLO inputs, ``repro serve
  report`` and the telemetry span p50/p95 all use it.

The :class:`MetricsRegistry` is the scrape surface: ``collect()``
returns an ordered snapshot that :mod:`repro.obs.exposition` renders as
Prometheus text format, and ``to_dict()`` is the JSON twin served at
``/varz`` and consumed by ``repro serve top``.  All mutation goes
through one registry lock, so a scraper thread can render mid-epoch
without torn reads (pinned by the concurrent-scrape test).  Producers
update their instruments directly; nothing is mirrored in from
telemetry.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left, bisect_right, insort
from collections import deque
from typing import Any, Callable, Iterable

__all__ = [
    "DECISION_WINDOW",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RollingWindow",
    "sanitize_metric_name",
]

#: Default histogram bucket upper bounds, in seconds — tuned for
#: scheduler decision latencies (sub-ms to tens of seconds).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Values a :class:`RollingWindow` keeps — THE definition of "current"
#: percentiles: the serve loop's decision latency and the telemetry span
#: p50/p95 are computed over the most recent ``DECISION_WINDOW`` values.
DECISION_WINDOW = 512

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary dotted name into a valid Prometheus name.

    ``serve.cache_hits`` -> ``serve_cache_hits``; a leading digit gets
    an underscore prefix.  Idempotent on already-valid names.
    """
    if _NAME_OK.match(name):
        return name
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or not _NAME_OK.match(fixed):
        fixed = "_" + fixed
    return fixed


def percentile(ordered: list[float], q: float) -> float:
    """Linear-interpolated percentile of a pre-sorted list (0 if empty)."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class RollingWindow:
    """The last :data:`DECISION_WINDOW` values, kept sorted on insert.

    The one windowed-percentile type: the serve loop's decision latency
    (``summary()``, ``/healthz``, SLO rules), the post-hoc
    ``repro serve report`` and the telemetry span percentiles all read
    one of these, so "current p95" means the same thing everywhere.
    Insertion order lives in a deque (for eviction) and value order in a
    bisect-maintained list, so an insert is a search plus a memmove
    and a percentile read is O(1) — it runs per epoch on the serve path.

    One thread writes, others may read (the serve loop observes while a
    scrape reads ``/healthz``): every :meth:`observe` changes
    :attr:`sorted` in a single list operation, and a full window swaps
    the expired value for the new one in one slice assignment, so a
    reader never sees the list shrink or hold a half-made update.
    """

    __slots__ = ("_order", "sorted")

    def __init__(self) -> None:
        self._order: deque[float] = deque()
        #: Retained values in ascending order (read-only for callers).
        self.sorted: list[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        s = self.sorted
        self._order.append(value)
        if len(s) < DECISION_WINDOW:
            insort(s, value)
            return
        i = bisect_left(s, self._order.popleft())  # the expired value
        j = bisect_right(s, value)  # where the new one goes
        if j <= i:
            s[j : i + 1] = [value, *s[j:i]]
        else:
            s[i:j] = [*s[i + 1 : j], value]

    def __len__(self) -> int:
        return len(self.sorted)

    def percentile(self, q: float) -> float:
        """Exact linear-interpolated percentile over the window (0 if empty)."""
        return percentile(self.sorted, q)


class Counter:
    """Monotonic counter.  Mutate via the owning registry's lock."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", *, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self._value += amount

    def inc_locked(self, amount: float = 1.0) -> None:
        """Unlocked fast path: caller must hold the registry lock."""
        self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """Last-value-wins instantaneous reading."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", *, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_locked(self, value: float) -> None:
        """Unlocked fast path: caller must hold the registry lock."""
        self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Fixed-bucket cumulative histogram: buckets, count and sum.

    Lifetime, cheap and mergeable — the Prometheus histogram series.
    Windowed percentiles are not kept here; they live in the producer's
    :class:`RollingWindow` (for the serve loop, the one behind
    ``/healthz`` and ``summary()``).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = tuple(bounds)
        self._lock = lock
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf is last
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self.observe_locked(value)

    def observe_locked(self, value: float) -> None:
        """Unlocked fast path: caller must hold the registry lock."""
        value = float(value)
        # First bucket whose bound >= value, i.e. the "value <= le"
        # Prometheus bucket; one past the end means +Inf.
        self._counts[bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs ending at +Inf."""
        with self._lock:
            return self._cumulative_locked()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": self.kind,
                "help": self.help,
                "count": self._count,
                "sum": self._sum,
                "buckets": [
                    ["+Inf" if math.isinf(b) else b, c]
                    for b, c in self._cumulative_locked()
                ],
            }

    def _cumulative_locked(self) -> list[tuple[float, int]]:
        out = []
        running = 0
        for bound, c in zip(self.buckets, self._counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out


class MetricsRegistry:
    """Get-or-create home for all live instruments.

    One :class:`threading.RLock` guards every instrument it creates, so
    a ``collect()`` from the exposition thread serializes against
    serve-loop updates — scrapes see a consistent point-in-time view.
    """

    def __init__(self, *, namespace: str = "repro") -> None:
        self.namespace = sanitize_metric_name(namespace) if namespace else ""
        self._lock = threading.RLock()
        self._metrics: dict[str, Any] = {}
        self._collect_hooks: list[Callable[[], None]] = []

    def _full_name(self, name: str) -> str:
        name = sanitize_metric_name(name)
        if self.namespace and not name.startswith(self.namespace + "_"):
            name = f"{self.namespace}_{name}"
        return name

    def _get_or_create(self, name: str, factory: Callable[[str], Any], kind: str):
        full = self._full_name(name)
        with self._lock:
            existing = self._metrics.get(full)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {full!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                return existing
            metric = factory(full)
            self._metrics[full] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, lambda n: Counter(n, help, lock=self._lock), "counter"
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, lambda n: Gauge(n, help, lock=self._lock), "gauge"
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            name,
            lambda n: Histogram(n, help, buckets=buckets, lock=self._lock),
            "histogram",
        )

    # -- snapshots --------------------------------------------------------
    @property
    def lock(self) -> threading.RLock:
        """The registry-wide RLock (reentrant).

        Renderers hold it across a whole multi-instrument read so a
        scrape sees one point-in-time view — per-instrument accessors
        each reacquire it, which lets writers interleave between reads.
        """
        return self._lock

    def add_collect_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the start of every :meth:`collect`.

        The Prometheus *gauge function* idiom: derived gauges (queue
        depth, hit ratio, current benefit) are refreshed lazily when a
        scrape happens instead of on every producer event — scrapes
        arrive ~1/s while the serve loop emits thousands of epochs per
        second on replayed logs, so this keeps the per-epoch
        observability cost under its <2% budget.
        """
        with self._lock:
            if hook not in self._collect_hooks:
                self._collect_hooks.append(hook)

    def remove_collect_hook(self, hook: Callable[[], None]) -> None:
        """Unregister a :meth:`add_collect_hook` callback (idempotent)."""
        with self._lock:
            try:
                self._collect_hooks.remove(hook)
            except ValueError:
                pass

    def collect(self) -> list[tuple[str, Any]]:
        """``(name, instrument)`` pairs in sorted-name order.

        Collect hooks run first (outside per-instrument reads, lock
        reentrant) so lazily-refreshed gauges are current in the result.
        """
        with self._lock:
            hooks = tuple(self._collect_hooks)
        for hook in hooks:
            hook()
        with self._lock:
            return sorted(self._metrics.items())

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot of every instrument (the ``/varz`` body)."""
        with self._lock:
            return {name: metric.snapshot() for name, metric in self.collect()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return self._full_name(name) in self._metrics
