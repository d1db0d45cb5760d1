"""Deterministic random-number plumbing.

Every stochastic entry point in :mod:`repro` accepts ``rng`` as either an
integer seed, an existing :class:`numpy.random.Generator`, or ``None``
(fresh OS entropy).  Converting at the boundary with :func:`as_generator`
keeps experiment scripts reproducible bit-for-bit while letting library
internals assume a real ``Generator``.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def as_generator(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` for OS entropy, an ``int`` seed, or an existing generator
        (returned unchanged so callers can share a stream).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, int, or Generator, got {type(rng)!r}")


def spawn(rng: RngLike, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` statistically independent child generators.

    Children are derived through :class:`numpy.random.SeedSequence` spawning
    so that parallel workers (threads, processes, or repeated experiment
    arms) never share a stream.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    gen = as_generator(rng)
    seeds = gen.integers(0, 2**63 - 1, size=n, dtype=np.int64)
    return [np.random.default_rng(np.random.SeedSequence(int(s))) for s in seeds]
