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


def _bound_reads(
    groups: Sequence[ZeroJitterGroup], top: float, steps: int
) -> tuple[float, int, float, float, int, float, float]:
    """What :class:`FitBound` reads of ``groups``, in one pass.

    Returns the least ``total_p``, the first group holding it and the
    least of the other groups' (the runner-up), the same three for the
    largest slack ``pmin − total_p``, and the margin
    M = ε + 16uA + 2·``steps``·uA for A = 2 max(``top``, ε, every
    ``total_p``, every finite ``pmin``).
    """
    min_t = min_rest = math.inf
    max_s = max_rest = -math.inf
    lo = hi = -1
    for i, group in enumerate(groups):
        total_p = group.total_p
        pmin = group.pmin
        if total_p > top:
            top = total_p
        if pmin > top and pmin < math.inf:  # an empty group's inf does not count
            top = pmin
        if total_p < min_rest:
            if total_p < min_t:
                min_rest, min_t, lo = min_t, total_p, i
            else:
                min_rest = total_p
        slack = pmin - total_p
        if slack > max_rest:
            if slack > max_s:
                max_rest, max_s, hi = max_s, slack, i
            else:
                max_rest = slack
    margin = _EPS + max(top, _EPS) * (2.0**-48 + steps * 2.0**-51)
    return min_t, lo, min_rest, max_s, hi, max_rest, margin


class FitBound:
    """A proved necessary condition for :func:`first_fit` to find a group.

    :meth:`exclusions` asks it per candidate, for several queries at
    once, each with at most one group open: left out of the fixed
    groups and counted at the ``pmin`` and ``total_p`` the query gives.
    A verdict that excludes a candidate lets a caller skip the scan.
    :meth:`excludes_all` is one query that opens no group, reduced to
    whether it excludes every candidate.  Both read the groups and the
    margin through :func:`_bound_reads`.

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
       B = max(min(T − min t, max slack), min(T, m_o) − t_o), or its
       first term alone with no open group.
    3. Hence a fit implies p ≤ B + ε + 3uA.  The test compares p with
       fl(B + M), M = ε + 16uA (the power-of-two product is exact),
       and |B + M| ≤ 2A, so fl(B + M) ≥ B + ε + 16uA − 2uA − uA
       > B + ε + 3uA: p > fl(B + M) rules out every group.

    An empty group (m_g = ∞) leaves slack T − 0.0, which the min with
    T − min t already covers.  A is twice the largest magnitude read:
    ``top``, every ``total_p`` and every finite ``pmin``.
    """

    @staticmethod
    def excludes_all(
        groups: Sequence[ZeroJitterGroup],
        periods: np.ndarray,
        processing_times: np.ndarray,
        top: float,
    ) -> bool:
        """True only if no candidate fits any group: :meth:`exclusions`'
        row for a query that opens none, without drift, with B its first
        term alone."""
        min_t, _, _, max_s, _, _, margin = _bound_reads(groups, top, 0)
        bound = np.minimum(periods - min_t, max_s)
        bound += margin
        return bool((processing_times > bound).all())

    @staticmethod
    def exclusions(
        groups: Sequence[ZeroJitterGroup],
        opens: Sequence[tuple[int, float, float]],
        periods: np.ndarray,
        processing_times: np.ndarray,
        top: float,
        steps: int,
    ) -> np.ndarray:
        """(B, C) verdicts: B queries, each with its own group open.

        Row b is the bound over ``groups`` with the group at index i open
        at (pmin, total_p), for ``opens[b]`` = (i, pmin, total_p), asked
        about each candidate of ``periods`` and ``processing_times``;
        ``top`` is at least every candidate period and processing time.
        An index outside the groups leaves every group fixed; given with
        (inf, inf), its open term is -inf and the row is B's first term
        alone.  The margin is widened
        so each verdict stays sound after the groups drift: it holds
        while every group's live ``total_p``, and the open total the
        scan then reads, is within D = ``steps``·uA of the value read
        here (u and A as in the class proof, A over the values read).

        Proof.  Let t̃_g be the live value, |t̃_g − t_g| ≤ D ≤ A/2.  A
        fit needs fl(t̃_g + p) ≤ fl(Y_g + ε) with |t̃_g + p| ≤ A + D, so
        p ≤ Y_g − t̃_g + ε + 2uA + uD ≤ Y_g − t_g + ε + 2uA + (1 + u)D.
        Step 2 over the values read bounds Y_g − t_g by B + uA/2, so a
        fit implies p ≤ B + ε + 2.5uA + (1 + u)D.  The test compares p
        with fl(B + M), M = ε + 16uA + 2D, whose roundings cost at most
        uA (computing M) and 2uA (adding B), so fl(B + M) ≥ B + ε + 13uA
        + 2D, above that bound.  With ``steps`` = 0 this is the class's
        own margin.
        """
        min_all, lo, min_rest, max_all, hi, max_rest, margin = _bound_reads(
            groups, top, steps
        )
        # Each row leaves its open group out: the extremum of the rest
        # is the runner-up when the open group holds the extremum.
        rows = np.array([
            (min_rest if i == lo else min_all, max_rest if i == hi else max_all,
             open_pmin, open_total_p)
            for i, open_pmin, open_total_p in opens
        ])
        bound = periods - rows[:, 0:1]
        np.minimum(bound, rows[:, 1:2], out=bound)
        open_bound = np.minimum(periods, rows[:, 2:3])
        open_bound -= rows[:, 3:4]
        np.maximum(bound, open_bound, out=bound)
        bound += margin
        return processing_times > bound


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
