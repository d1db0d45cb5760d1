"""Live metrics: the scrape-time registry and the rolling window.

Where :mod:`repro.obs.telemetry` is the run record ("what happened over
the whole run": JSONL events, post-hoc ``repro report``), this module is
the live scrape surface ("what is happening *right now*").  It keeps no
counts of its own: every series is read, at scrape time, from the state
its producer already keeps.

Sources
-------
A *source* is a zero-argument callable returning ``{full_name:
snapshot}``, where a snapshot is a JSON-safe dict with ``type``
(``counter``/``gauge``/``histogram``), ``help`` and either ``value`` or
``count``/``sum``/``buckets`` (:func:`histogram_snapshot`).  The serve
loop registers one (:meth:`repro.serve.service.SchedulerService.
attach_observability`) that reads its :class:`~repro.serve.service.
ServeStats` tally and health snapshot, so ``/metrics`` cannot disagree
with ``summary()`` and the per-epoch path never touches the registry.

Windowed percentiles
--------------------
* :class:`RollingWindow` — the last :data:`DECISION_WINDOW` values,
  sorted on insert, with exact linear-interpolated percentiles
  (:func:`percentile`).  It is the only windowed-percentile type: the
  serve loop's ``summary()``/``/healthz``/SLO inputs, ``repro serve
  report`` and the telemetry span p50/p95 all use it.

The :class:`MetricsRegistry` is the scrape surface: ``collect()``
merges its sources into a name-sorted list of snapshots that
:mod:`repro.obs.exposition` renders as Prometheus text format, and
``to_dict()`` is the JSON twin served at ``/varz``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from itertools import accumulate
from typing import Any, Callable, Sequence

__all__ = [
    "DECISION_WINDOW",
    "DEFAULT_BUCKETS",
    "MetricsRegistry",
    "RollingWindow",
    "histogram_snapshot",
]

#: Histogram bucket upper bounds, in seconds — tuned for scheduler
#: decision latencies (sub-ms to tens of seconds).  A value ``v`` counts
#: in bucket ``bisect_left(DEFAULT_BUCKETS, v)``: the first bound with
#: ``v <= le``, or one past the end (``+Inf``).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Values a :class:`RollingWindow` keeps — THE definition of "current"
#: percentiles: the serve loop's decision latency and the telemetry span
#: p50/p95 are computed over the most recent ``DECISION_WINDOW`` values.
DECISION_WINDOW = 512

#: ``() -> {full_name: snapshot}``, read once per scrape.
Source = Callable[[], dict[str, dict[str, Any]]]


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


def histogram_snapshot(
    help: str, bucket_counts: Sequence[int], count: int, total: float
) -> dict[str, Any]:
    """Snapshot of a :data:`DEFAULT_BUCKETS` histogram.

    ``bucket_counts[i]`` is how many values fell in bucket ``i`` (the
    :data:`DEFAULT_BUCKETS` rule; entries past the last bound are
    ignored).  The buckets are cumulative and the ``+Inf`` bucket is
    ``count`` by construction.
    """
    cumulative = accumulate(bucket_counts[: len(DEFAULT_BUCKETS)])
    return {
        "type": "histogram",
        "help": help,
        "count": count,
        "sum": total,
        "buckets": [
            *([b, c] for b, c in zip(DEFAULT_BUCKETS, cumulative)),
            ["+Inf", count],
        ],
    }


class MetricsRegistry:
    """The scrape surface: the sources read on every :meth:`collect`.

    Holds no instruments and no lock: each source reads its producer's
    own state, so a scrape costs the producer nothing between scrapes.
    """

    def __init__(self) -> None:
        self._sources: list[Source] = []

    def add_source(self, source: Source) -> None:
        """Read ``source()`` on every :meth:`collect` (idempotent)."""
        if source not in self._sources:
            self._sources.append(source)

    def remove_source(self, source: Source) -> None:
        """Unregister an :meth:`add_source` callable (idempotent)."""
        try:
            self._sources.remove(source)
        except ValueError:
            pass

    def collect(self) -> list[tuple[str, dict[str, Any]]]:
        """``(name, snapshot)`` pairs of every source, in sorted-name order."""
        merged: dict[str, dict[str, Any]] = {}
        for source in tuple(self._sources):
            merged.update(source())
        return sorted(merged.items())

    def to_dict(self) -> dict[str, dict[str, Any]]:
        """JSON-safe ``{name: snapshot}`` (the ``/varz`` ``metrics`` body)."""
        return dict(self.collect())
