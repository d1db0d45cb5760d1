"""Algorithm 1: group-based heuristic zero-jitter grouping.

Implements the paper's Algorithm 1 lines 1–19:

1. sort streams by period ascending;
2. compute each stream's priority ``I_i = Σ_{j<i} 1(T_i mod T_j == 0)``
   (how many earlier, shorter periods divide it — streams that are easy
   to co-schedule get high counts);
3. re-sort ascending by priority (stable, so period order breaks ties);
4. greedily place each stream into the first of N groups where the
   Theorem-3 conditions still hold after insertion: all periods remain
   integer multiples of the group minimum, and total processing time
   stays within that minimum.

Feasible groupings satisfy Const2 (hence Const1 and zero jitter).

:class:`ZeroJitterGroup` is the single holder of that per-group
invariant.  Every Algorithm-1 user places through it: the batch
:func:`group_streams` (divisor-priority order, first fit),
:func:`repro.sched.solvers.exact_grouping` (branch-and-bound with
``add``/``remove``), and the serve loop's
:class:`repro.serve.engine.IncrementalPlanner` (benefit-ranked
admission under churn, scanning groups with :func:`first_fit`).  Only
the ordering policies differ.
:func:`repro.sched.theory.theorem3_conditions` stays the reference
predicate the group is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from repro.sched.streams import PeriodicStream
from repro.sched.theory import theorem3_conditions

#: Slack for float capacity / integer-multiple comparisons.
_EPS = 1e-9


class InfeasibleScheduleError(RuntimeError):
    """Raised when no grouping satisfying Const2 exists for N servers."""


@dataclass
class GroupingResult:
    """Outcome of Algorithm 1's grouping phase.

    ``groups[j]`` lists the streams co-scheduled on (logical) group j;
    ``group_of[stream_id]`` inverts the mapping.  Logical groups are
    mapped to physical servers afterwards by the assignment step.
    """

    groups: list[list[PeriodicStream]]
    group_of: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.group_of:
            self.group_of = {
                s.stream_id: j for j, grp in enumerate(self.groups) for s in grp
            }

    @property
    def n_nonempty(self) -> int:
        return sum(1 for g in self.groups if g)

    def validate(self) -> bool:
        """Check the Theorem-3 invariant on every group."""
        return all(theorem3_conditions(g) for g in self.groups)


def divisor_priorities(streams: Sequence[PeriodicStream]) -> list[int]:
    """Priorities I_i over period-sorted streams (Algorithm 1, line 2).

    Uses exact rational arithmetic: T_i mod T_j == 0 iff T_i / T_j is an
    integer.  Input must already be sorted by period ascending.
    """
    periods = [s.period for s in streams]
    return [
        sum(1 for tj in periods[:i] if _is_multiple(ti, tj))
        for i, ti in enumerate(periods)
    ]


@lru_cache(maxsize=4096)
def _is_multiple(period: float, base: float) -> bool:
    """Is ``period`` an integer multiple of ``base`` (exact rationals)?

    Cached because periods come from a small knob set: the rational
    conversion otherwise dominates Algorithm 1's cost.
    """
    ratio = Fraction(period).limit_denominator(1_000_000) / Fraction(
        base
    ).limit_denominator(1_000_000)
    return ratio.denominator == 1


def _all_multiples(periods, base: float) -> bool:
    """Is every period an integer multiple of ``base`` (within ``_EPS``)?

    Periods enter at 12 decimals, so float noise in a split sub-period
    does not break a harmonic chain.
    """
    for q in periods:
        ratio = round(q, 12) / base
        if abs(ratio - round(ratio)) > _EPS:
            return False
    return True


class ZeroJitterGroup:
    """One server group kept under Theorem 3 as members come and go.

    Members are any objects exposing ``period``, ``processing_time`` and
    ``rate`` (bits/s) — :class:`PeriodicStream` or the serve engine's
    sub-streams.  The group keeps its distinct periods, total processing
    time, running bit-rate and minimum period, plus whether every
    period is a multiple of that minimum (``aligned``).  :meth:`fits`
    for a candidate that does not lower the minimum is then O(1); one
    that does re-checks the distinct periods.
    """

    __slots__ = ("members", "periods", "total_p", "rate", "pmin", "aligned")

    def __init__(self) -> None:
        self.members: list = []
        self.periods: dict[float, int] = {}  # period -> member count
        self.total_p = 0.0
        self.rate = 0.0  # Σ member rate (bits/s)
        self.pmin = math.inf
        self.aligned = True  # every period a multiple of pmin

    def fits(self, candidate) -> bool:
        """Would Theorem 3 still hold with ``candidate`` added?"""
        return first_fit((self,), candidate) == 0

    def add(self, member) -> None:
        """Place ``member`` unchecked (best-effort overflow relies on this)."""
        period = member.period
        self.members.append(member)
        count = self.periods.get(period, 0)
        self.periods[period] = count + 1
        self.total_p += member.processing_time
        self.rate += member.rate
        if period < self.pmin:
            self.pmin = period
            self.aligned = _all_multiples(self.periods, period)
        elif not count and self.aligned:
            self.aligned = _all_multiples((period,), self.pmin)

    def remove(self, member) -> None:
        """Take ``member`` out, restoring the running sums and ``pmin``."""
        period = member.period
        self.members.remove(member)
        count = self.periods[period] - 1
        if count:
            self.periods[period] = count
        else:
            del self.periods[period]
        self.total_p -= member.processing_time
        self.rate -= member.rate
        if not self.members:
            self.total_p = 0.0
            self.rate = 0.0
            self.pmin = math.inf
            self.aligned = True
        elif not count and period == self.pmin:
            self.pmin = min(self.periods)
            self.aligned = _all_multiples(self.periods, self.pmin)
        elif not count and not self.aligned:
            self.aligned = _all_multiples(self.periods, self.pmin)


def first_fit(groups: Sequence[ZeroJitterGroup], candidate, start: int = 0) -> int:
    """Index of the first of ``groups[start:]`` that ``candidate`` fits.

    Returns -1 when none does.  Theorem 3 must still hold after the
    insertion: the group's total processing time stays within its
    (possibly new) minimum period, and every period is an integer
    multiple of that minimum.  When the candidate does not lower the
    minimum, the cached ``aligned`` flag answers for the members and
    the check is O(1); a new minimum re-checks the distinct periods.
    The predicate is written out here, not called per group, because
    this scan is the serve planner's innermost loop.
    """
    period = candidate.period
    ptime = candidate.processing_time
    for i in range(start, len(groups)):
        group = groups[i]
        pmin = group.pmin
        if period < pmin:  # a new minimum re-bases every ratio
            if not group.total_p + ptime > period + _EPS and _all_multiples(
                group.periods, period
            ):
                return i
        elif group.aligned and not group.total_p + ptime > pmin + _EPS:
            ratio = period / pmin
            if abs(ratio - round(ratio)) <= _EPS:
                return i
    return -1


def group_streams(
    streams: Sequence[PeriodicStream],
    n_servers: int,
    *,
    strict: bool = True,
) -> GroupingResult:
    """Run Algorithm 1's grouping (lines 1–19).

    Parameters
    ----------
    streams:
        The (already split) periodic stream set T.
    n_servers:
        Number of groups N available.
    strict:
        When True (default), raise :class:`InfeasibleScheduleError` if a
        stream fits in no group — the paper's "No feasible grouping
        scheme".  When False, overflow streams are placed in the group
        with the lowest resulting utilization (best effort; the caller
        must then expect jitter), which is what baseline schedulers that
        ignore Const2 effectively do.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1, got {n_servers}")

    # Line 1: sort by period ascending (stable on stream_id for determinism).
    by_period = sorted(streams, key=lambda s: (s.period, s.stream_id))
    # Line 2: divisor-count priorities.
    prios = divisor_priorities(by_period)
    # Line 3: ascending priority, stable.
    order = sorted(range(len(by_period)), key=lambda i: prios[i])
    final = [by_period[i] for i in order]

    groups = [ZeroJitterGroup() for _ in range(n_servers)]
    for s in final:
        for grp in groups:
            if not grp.members or grp.fits(s):
                grp.add(s)
                break
        else:
            if strict:
                raise InfeasibleScheduleError(
                    f"stream {s.stream_id} (T={s.period:.4f}s, p={s.processing_time:.4f}s) "
                    f"fits in none of {n_servers} groups"
                )
            # Best effort: least-loaded group.
            loads = [sum(x.load for x in g.members) for g in groups]
            groups[loads.index(min(loads))].add(s)

    return GroupingResult(groups=[g.members for g in groups])
