"""Thread-safe LRU memo with telemetry hit/miss counters.

One class serves every process-wide memo in the hot loops: the GP
kernel/Cholesky cache (:mod:`repro.gp.cache`, counters
``gp.chol_cache_hits``/``misses``) and the Hungarian assignment memo
(:mod:`repro.sched.assignment`, ``sched.assign_cache_hits``/``misses``).
Kept out of :mod:`repro.utils`' package namespace because it depends on
:mod:`repro.obs.telemetry`, which itself imports from ``repro.utils``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.obs import telemetry


class LRUCache:
    """Thread-safe LRU; counts hits/misses as ``<counters>_hits``/``_misses``.

    Values are whatever the compute callback returns.  Treat cached
    arrays as read-only.
    """

    def __init__(self, maxsize: int, *, counters: str) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._hit_counter = f"{counters}_hits"
        self._miss_counter = f"{counters}_misses"
        self._store: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing it on a miss."""
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                telemetry.counter(self._hit_counter)
                return self._store[key]
        value = compute()
        self.put(key, value)
        self.misses += 1
        telemetry.counter(self._miss_counter)
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh an entry, evicting the least recent past ``maxsize``."""
        with self._lock:
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset hit/miss counts."""
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int | float]:
        """Snapshot: hits, misses, size, and hit rate."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._store),
                "hit_rate": self.hits / total if total else 0.0,
            }
