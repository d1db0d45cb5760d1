"""Shared kernel-matrix / Cholesky cache for the GP hot path.

Every GP in the pipeline — the five outcome surrogates and the
pairwise-preference GP — pays the same two costs per (re)fit: building
the train-set kernel matrix K (O(n² d)) and factorizing K + σ²I
(O(n³)).  Both depend only on (kernel hyperparameters, noise term,
training inputs), so repeated fits with unchanged inputs — e.g. the
preference learner refitting after each comparison on an unchanged
item set, or a regressor re-conditioning with frozen hyperparameters —
can reuse the previous factorization.

This module provides a small process-wide LRU keyed on exactly that
triple (a :class:`repro.utils.lru.LRUCache`).  Entries are treated as
immutable: callers must never write into a cached array (``cho_solve``
/ ``solve_triangular`` reads are fine).  Hits and misses are counted
through :mod:`repro.obs.telemetry` as ``gp.chol_cache_hits`` /
``gp.chol_cache_misses``.  The tests compare cached fits against fits
run after :func:`clear`, which recompute everything from scratch.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.utils.lru import LRUCache

__all__ = [
    "chol_cache",
    "cache_key",
    "clear",
    "stats",
]


def _digest(arr: np.ndarray) -> bytes:
    """Stable fingerprint of an array's contents (shape-aware)."""
    a = np.ascontiguousarray(arr)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.digest()


def cache_key(kernel, noise: float, x: np.ndarray, *, tag: str = "") -> tuple:
    """Cache key for the factorization of ``kernel(x) + noise·I``.

    The key covers everything the factorization depends on: the kernel
    family, its full log-parameter vector, the diagonal inflation, and
    a fingerprint of the training inputs (the "train-set version").
    ``tag`` lets callers with extra state (e.g. different jitter
    policies) partition their entries.
    """
    return (
        tag,
        type(kernel).__name__,
        _digest(np.asarray(kernel.get_log_params(), dtype=float)),
        float(noise),
        _digest(np.asarray(x, dtype=float)),
    )


#: The process-wide cache shared by the outcome surrogates and the
#: preference GP.  Sized for a handful of models' worth of entries.
chol_cache = LRUCache(maxsize=64, counters="gp.chol_cache")


def clear() -> None:
    """Drop all entries in the shared cache."""
    chol_cache.clear()


def stats() -> dict[str, int | float]:
    """Hit/miss statistics of the shared cache."""
    return chol_cache.stats()
