"""Executable statements of §3's constraints and theorems.

* ``Const1`` (Eq. 6): per-server utilization Σ p_i s_i ≤ 1.
* ``Const2`` (Eq. 7): per-server Σ p_i ≤ gcd of the group's periods.
* Theorem 1: Const2 is sufficient for zero delay jitter with staggered
  start times o(τ_k) = Σ_{i<k} p_i.
* Theorem 2: Const2 ⇒ Const1 (tested, not re-proved).
* Theorem 3: harmonic periods (T_i = t · T_min) plus Σ p_i ≤ T_min are
  sufficient for Const2 — the condition Algorithm 1 maintains.

These predicates are what the simulator-backed property tests check:
every schedule passing ``const2_satisfied`` must measure zero queueing
delay in :mod:`repro.sim`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

from repro.sched.streams import PeriodicStream
from repro.utils import gcd_many, is_harmonic

#: Absolute slack when comparing sums of float durations.
_EPS = 1e-9


def _groups(
    streams: Sequence[PeriodicStream], assignment: Sequence[int]
) -> dict[int, list[PeriodicStream]]:
    if len(streams) != len(assignment):
        raise ValueError(
            f"{len(streams)} streams but {len(assignment)} assignment entries"
        )
    by_server: dict[int, list[PeriodicStream]] = defaultdict(list)
    for s, q in zip(streams, assignment):
        if q != -1:
            by_server[int(q)].append(s)
    return by_server


def utilization(streams: Sequence[PeriodicStream], assignment: Sequence[int]) -> dict[int, float]:
    """Per-server utilization Σ p_i · s_i."""
    return {
        j: sum(s.load for s in grp) for j, grp in _groups(streams, assignment).items()
    }


def const1_satisfied(
    streams: Sequence[PeriodicStream], assignment: Sequence[int]
) -> bool:
    """Eq. 6: every server's total utilization is at most 1."""
    return all(u <= 1.0 + _EPS for u in utilization(streams, assignment).values())


def const2_satisfied(
    streams: Sequence[PeriodicStream], assignment: Sequence[int]
) -> bool:
    """Eq. 7: on each server, Σ p_i ≤ gcd({T_i})."""
    for grp in _groups(streams, assignment).values():
        total_p = sum(s.processing_time for s in grp)
        g = gcd_many([s.period for s in grp])
        if total_p > g + _EPS:
            return False
    return True


def theorem1_zero_jitter(group: Sequence[PeriodicStream]) -> bool:
    """Theorem 1 premise for one server group: Σ p_i ≤ gcd(T_1..T_K).

    When true, the staggered start times o(τ_k) = Σ_{i<k} p_i yield zero
    delay jitter for every stream in the group.
    """
    if not group:
        return True
    total_p = sum(s.processing_time for s in group)
    return total_p <= gcd_many([s.period for s in group]) + _EPS


def theorem3_conditions(group: Sequence[PeriodicStream]) -> bool:
    """Theorem 3: harmonic periods and Σ p_i ≤ T_min ⇒ Const2.

    This is the (stronger, easily checkable) condition Algorithm 1
    maintains per group.
    """
    if not group:
        return True
    periods = [s.period for s in group]
    if not is_harmonic(periods):
        return False
    total_p = sum(s.processing_time for s in group)
    return total_p <= min(periods) + _EPS


def stagger_offsets(group: Sequence[PeriodicStream]) -> list[float]:
    """Start times o(τ_k) = Σ_{i<k} p_i from the proof of Theorem 1."""
    offsets: list[float] = []
    acc = 0.0
    for s in group:
        offsets.append(acc)
        acc += s.processing_time
    return offsets
