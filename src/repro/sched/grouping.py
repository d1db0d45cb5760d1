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

import numpy as np

from repro.obs.telemetry import telemetry
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


class GroupView:
    """What :func:`first_fit` reads of a group, after moves not yet made.

    ``total_p``, ``periods`` (only its keys are read), ``pmin`` and
    ``aligned`` as a :class:`ZeroJitterGroup` would hold them, so a
    caller can ask where a sub-stream would land without touching a
    group.  Each derivation follows :meth:`ZeroJitterGroup.add` /
    :meth:`~ZeroJitterGroup.remove` branch for branch.  The running
    ``total_p`` is the caller's: it depends on the order of the float
    operations the moves would make.

    :meth:`without` and :meth:`plus` lean on the group invariant:
    ``pmin == min(periods)`` (``inf`` when empty) and
    ``aligned == _all_multiples(periods, pmin)``.
    ``add`` keeps it (a new minimum re-checks every key; a new key above
    the minimum is and-ed in; a repeated key changes nothing) and so
    does ``remove`` (an emptied group resets; losing the minimum key
    re-derives both; losing another key re-checks only when unaligned,
    since a subset of multiples is still multiples; a key whose count
    stays positive changes nothing).  Hence ``pmin`` and ``aligned``
    are a function of the key set alone.
    """

    __slots__ = ("total_p", "periods", "pmin", "aligned")

    def __init__(self, total_p: float, periods, pmin: float, aligned: bool) -> None:
        self.total_p = total_p
        self.periods = periods
        self.pmin = pmin
        self.aligned = aligned

    @classmethod
    def without(
        cls, group: ZeroJitterGroup, period: float, count: int, total_p: float
    ) -> "GroupView":
        """``group`` after ``remove`` of ``count`` of its members of ``period``.

        Only the last of those removals can drop the key, so the shape
        is what ``remove`` derives at that one step.
        """
        if group.periods[period] > count:
            return cls(total_p, group.periods, group.pmin, group.aligned)
        if len(group.members) == count:
            return cls(0.0, (), math.inf, True)
        periods = tuple(q for q in group.periods if q != period)
        pmin, aligned = group.pmin, group.aligned
        if period == pmin:
            pmin = min(periods)
            aligned = _all_multiples(periods, pmin)
        elif not aligned:
            aligned = _all_multiples(periods, pmin)
        return cls(total_p, periods, pmin, aligned)

    def at(self, total_p: float) -> "GroupView":
        """The same shape with another running ``total_p``."""
        return GroupView(total_p, self.periods, self.pmin, self.aligned)

    @classmethod
    def plus(cls, group, period: float, processing_time: float) -> "GroupView":
        """``group`` (a :class:`ZeroJitterGroup` or a view) after ``add``
        of a member of ``period``."""
        total_p = group.total_p + processing_time
        periods = group.periods
        if period < group.pmin:  # below the minimum, so a new key
            periods = (*periods, period)
            return cls(total_p, periods, period, _all_multiples(periods, period))
        if period in periods:
            return cls(total_p, periods, group.pmin, group.aligned)
        aligned = group.aligned and _all_multiples((period,), group.pmin)
        return cls(total_p, (*periods, period), group.pmin, aligned)


class FitBound:
    """A proved necessary condition for :func:`first_fit` to find a group.

    Built once over ``groups`` whose state is fixed while the bound is
    used, except the group at index ``open_``, whose ``pmin`` and
    ``total_p`` the caller passes per query.  ``top`` is at least every
    candidate period and processing time the bound will be asked about.
    :meth:`excludes` is True only when such a candidate fits no group,
    so a caller may skip the exact scan.

    Proof.  Write T = ``period``, p = ``processing_time``, ε = ``_EPS``
    and, per group g, t_g = ``total_p`` and m_g = ``pmin``.  Both
    branches of :func:`first_fit` require fl(t_g + p) ≤ fl(Y_g + ε) with
    Y_g = min(T, m_g): the new-minimum branch compares with T < m_g,
    the other with m_g ≤ T.  Let A bound twice every finite t_g, m_g,
    T, p and ε, and u = 2⁻⁵³.  Round-to-nearest gives |fl(x) − x| ≤ u|x|.
    Then:

    1. fl(t_g + p) ≥ t_g + p − uA and fl(Y_g + ε) ≤ Y_g + ε + uA, so
       a fit implies p ≤ Y_g − t_g + ε + 2uA.
    2. Y_g − t_g ≤ T − min t and Y_g − t_g ≤ m_g − t_g.  Over the fixed
       groups, the computed fl(T − min t) and max fl(m_g − t_g) are
       each within uA/2 of the exact values (min and max are exact),
       and so is fl(min(T, m_o) − t_o) for the open group o.  So
       Y_g − t_g ≤ B + uA/2 for the computed
       B = max(min(T − min t, max slack), min(T, m_o) − t_o).
    3. Hence a fit implies p ≤ B + ε + 3uA.  The test compares p with
       fl(B + M), M = ε + 16uA (the power-of-two product is exact),
       and |B + M| ≤ 2A, so fl(B + M) ≥ B + ε + 16uA − 2uA − uA
       > B + ε + 3uA: p > fl(B + M) rules out every group.

    An empty group (m_g = ∞) leaves slack T − 0.0, which the min with
    T − min t already covers.  A is taken as twice the largest magnitude
    seen at construction, so the last-bit drift the open group's
    ``total_p`` may pick up between queries stays below it.
    """

    __slots__ = ("min_total_p", "max_slack", "margin")

    def __init__(self, groups: Sequence[ZeroJitterGroup], open_: int, top: float) -> None:
        min_total_p = math.inf
        max_slack = -math.inf
        for i, group in enumerate(groups):
            total_p = group.total_p
            if total_p > top:
                top = total_p
            if group.members and group.pmin > top:
                top = group.pmin
            if i == open_:
                continue
            if total_p < min_total_p:
                min_total_p = total_p
            if group.pmin - total_p > max_slack:
                max_slack = group.pmin - total_p
        self.min_total_p = min_total_p
        self.max_slack = max_slack
        # A = 2 max(top, ε), so M = ε + 16uA = ε + 2^-48 max(top, ε).
        self.margin = _EPS + max(top, _EPS) * 2.0**-48

    def excludes(self, period: float, processing_time: float, pmin: float,
                 total_p: float) -> bool:
        """True only if a candidate fits no group, the open one at
        (``pmin``, ``total_p``) (see above)."""
        slack = min(period - self.min_total_p, self.max_slack)
        slack = max(slack, min(period, pmin) - total_p)
        return processing_time > slack + self.margin

    def excludes_all(self, periods: np.ndarray, processing_times: np.ndarray) -> bool:
        """True only if no candidate of the arrays fits any group.

        For a bound built with no open group (``open_`` outside the
        group indices), so step 2's B is ``min(T − min t, max slack)``
        alone; each element is :meth:`excludes`' float expression.
        """
        slack = np.minimum(periods - self.min_total_p, self.max_slack)
        return bool(np.all(processing_times > slack + self.margin))


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

    Emits ``sched.grouping.group_scans``: the groups examined over all
    placements (a stream that lands in group j costs j + 1, one that
    fits nowhere costs N), the pass's deterministic work count.
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
    scans = 0
    for s in final:
        for j, grp in enumerate(groups):
            if not grp.members or grp.fits(s):
                grp.add(s)
                scans += j + 1
                break
        else:
            scans += n_servers
            if strict:
                telemetry.counter("sched.grouping.group_scans", scans)
                raise InfeasibleScheduleError(
                    f"stream {s.stream_id} (T={s.period:.4f}s, p={s.processing_time:.4f}s) "
                    f"fits in none of {n_servers} groups"
                )
            # Best effort: least-loaded group.
            loads = [sum(x.load for x in g.members) for g in groups]
            groups[loads.index(min(loads))].add(s)

    telemetry.counter("sched.grouping.group_scans", scans)
    return GroupingResult(groups=[g.members for g in groups])
