"""The full solve's upgrade query against the detach → place → re-attach trip.

``IncrementalPlanner._upgrade_pass`` answers "would knob k fit once this
stream's subs are out?" from :class:`GroupView` copies, skips knobs a
:class:`FitBound` rules out (read for a block of streams at once, with
a margin widened for the drift the block's own misses leave) and, on a
miss, replays only the float steps of the round trip (``_settle_miss``,
``_settle_misses`` for a run of them).  Each piece is checked here
against the mutating path it replaces, on planner states built from
random joins, leaves and re-configurations: the landing groups must
match, every float, member order and period-key order must be
byte-equal after a miss, and the bound must never skip a knob that
fits, also after the drift it allows.
"""

from __future__ import annotations

import copy
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import EVAProblem
from repro.sched.grouping import FitBound, GroupView, ZeroJitterGroup, first_fit
from repro.serve import IncrementalPlanner, approx_preference

_BANDWIDTHS = [5.0, 10.0, 20.0, 30.0]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _snapshot(planner) -> tuple:
    """Every group field a decision can read, floats as raw bytes, in order.

    A member is named by its owner and its index among the owner's subs.
    """
    def name(sub):
        subs = planner.entries[sub.owner].subs
        return sub.owner, next(j for j, s in enumerate(subs) if s is sub)

    groups = tuple(
        (
            _bits(g.total_p),
            _bits(g.rate),
            _bits(g.pmin),
            g.aligned,
            tuple((_bits(q), c) for q, c in g.periods.items()),
            tuple(name(m) for m in g.members),
        )
        for g in planner.groups
    )
    entries = tuple(
        (sid, e.knob, tuple(planner.groups.index(sub.group) for sub in e.subs))
        for sid, e in sorted(planner.entries.items())
    )
    return groups, entries


def _planner(n_servers: int, seed: int) -> IncrementalPlanner:
    rng = np.random.default_rng(seed)
    problem = EVAProblem(8, rng.choice(_BANDWIDTHS, size=n_servers))
    return IncrementalPlanner.for_problem(
        problem, preference=approx_preference(problem)
    )


def _build(planner, ops) -> IncrementalPlanner:
    """Apply joins at a given knob, leaves and re-configurations."""
    for kind, sid, c, tex in ops:
        knob = planner._candidates[c]
        if kind == "join" and sid not in planner.entries:
            planner.add_stream(sid, tex, knob.r, knob.s)
        elif kind == "leave":
            planner.remove_stream(sid)
        elif kind == "move" and sid in planner.entries:
            planner._reconfigure(planner.entries[sid], knob)
    return planner


def _home(planner, sid):
    """(home group index, vacated view) of a stream whose subs share a group."""
    entry = planner.entries[sid]
    home = entry.subs[0].group
    if any(sub.group is not home for sub in entry.subs):
        return None
    n = len(entry.subs)
    own = entry.subs[0]
    total_p = 0.0
    if len(home.members) != n:
        total_p = home.total_p
        for _ in range(n):
            total_p -= own.processing_time
    view = GroupView.without(home, own.period, n, total_p)
    return planner.groups.index(home), view


def _check_knob(planner, sid, knob) -> str:
    """Query + rollback + bound vs the round trip for one (stream, knob)."""
    found = _home(planner, sid)
    if found is None or planner.entries[sid].knob is knob:
        return "skip"
    at_home, view = found

    # Where the first sub would go with the stream's subs detached.
    probe = copy.deepcopy(planner)
    for sub in probe.entries[sid].subs:
        sub.detach()
    detached_first = first_fit(probe.groups, knob)

    # The round trip, on a twin: detach, first-fit every sub, re-attach.
    real = copy.deepcopy(planner)
    entry = real.entries[sid]
    fitted = real._reconfigure(entry, knob)

    # The query, on another twin.
    query = copy.deepcopy(planner)
    landed = query._landing(knob, at_home, view)
    assert (len(landed) == knob.k) == fitted
    if fitted:
        assert landed == [real.groups.index(sub.group) for sub in entry.subs]
    else:
        query._settle_miss(query.entries[sid], knob, at_home, landed, True)
        assert _snapshot(query) == _snapshot(real)

    # The bound: a skipped knob's first sub fits no group.
    if _excluded(planner.groups, (at_home, view.pmin, view.total_p), knob.period,
                 knob.ptime, planner._top):
        assert detached_first < 0
        assert not fitted
        return "skipped"
    return "fit" if fitted else "miss"


def _excluded(groups, open_, period, ptime, top) -> bool:
    """One verdict of the bound, with ``open_`` = (index, pmin, total_p)."""
    return bool(FitBound.exclusions(groups, [open_], np.array([period]),
                                    np.array([ptime]), top, 0)[0, 0])


def _naive_upgrade(planner, entry, ranked) -> int:
    attempts = 0
    for knob in ranked:
        if knob is entry.knob:
            break
        attempts += 1
        if planner._reconfigure(entry, knob):
            break
    return attempts


def _naive_pass(planner, sids) -> int:
    """The upgrade pass as a ranking and a reconfigure per knob per stream."""
    return sum(
        _naive_upgrade(planner, planner.entries[sid],
                       planner._ranked(planner.entries[sid].cand_bits, planner._mean_bw()))
        for sid in sids
    )


def _check_pass(planner, sids) -> int:
    """The blocked pass against the naive one on twins; returns the attempts."""
    fast, slow = copy.deepcopy(planner), copy.deepcopy(planner)
    got = fast._upgrade_pass([fast.entries[sid] for sid in sids])
    assert got == _naive_pass(slow, sids)
    assert _snapshot(fast) == _snapshot(slow)
    return got


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["join", "join", "join", "leave", "move"]),
        st.integers(0, 11),
        st.integers(0, 35),
        st.floats(0.6, 1.4),
    ),
    max_size=30,
)


class TestQueryEqualsRoundTrip:
    @given(n_servers=st.integers(1, 4), seed=st.integers(0, 3), ops=_OPS,
           knobs=st.lists(st.integers(0, 35), min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_landing_rollback_and_bound(self, n_servers, seed, ops, knobs):
        planner = _build(_planner(n_servers, seed), ops)
        for sid in sorted(planner.entries):
            for c in knobs:
                _check_knob(planner, sid, planner._candidates[c])

    @given(n_servers=st.integers(1, 4), seed=st.integers(0, 3), ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_upgrade_equals_a_reconfigure_per_knob(self, n_servers, seed, ops):
        planner = _build(_planner(n_servers, seed), ops)
        _check_pass(planner, sorted(planner.entries))


class TestNamedCases:
    """States the random ops may reach rarely, built on purpose."""

    def _outcomes(self, planner, sid):
        return {
            _check_knob(planner, sid, knob) for knob in planner._candidates
        } - {"skip"}

    def test_home_group_that_empties(self):
        planner = _planner(2, 0)
        planner.add_stream(0, 1.0, 300.0, 1.0)
        assert len(planner.entries[0].subs[0].group.members) == 1
        assert "fit" in self._outcomes(planner, 0)
        assert _check_pass(planner, [0])

    def test_own_sub_holds_the_unique_pmin(self):
        planner = _planner(1, 0)
        planner.add_stream(0, 1.0, 900.0, 10.0)  # 0.1 s, the unique pmin
        assert planner.add_stream(1, 1.0, 300.0, 5.0)  # 0.2 s
        assert planner.add_stream(2, 1.0, 300.0, 2.0)  # 0.5 s
        home = planner.entries[0].subs[0].group
        assert home.pmin == planner.entries[0].subs[0].period
        assert home.periods[home.pmin] == 1
        _, view = _home(planner, 0)
        assert view.pmin == 0.2 and not view.aligned  # 0.5 / 0.2 = 2.5
        assert {"fit", "miss"} <= self._outcomes(planner, 0)
        assert _check_pass(planner, [0, 1, 2])

    def test_unaligned_groups(self):
        planner = _planner(2, 0)
        planner.add_stream(0, 1.0, 300.0, 10.0)  # 0.1 s, the minimum
        planner.add_stream(1, 1.0, 300.0, 5.0)  # 0.2 s
        planner.add_stream(2, 1.0, 300.0, 2.0)  # 0.5 s
        planner.add_stream(3, 1.0, 300.0, 1.0)  # 1 s
        planner.remove_stream(0)  # pmin 0.2: 0.5 is not a multiple
        assert any(not g.aligned for g in planner.groups)
        for sid in (1, 2, 3):
            assert self._outcomes(planner, sid)

    def test_miss_that_rerounds_the_home_sum(self):
        # One group with (t - p) + p != t: a miss must leave the re-rounded
        # sum the round trip leaves, not the original.
        planner = IncrementalPlanner([10.0])
        for sid, r, s in [(0, 900.0, 1.0), (1, 300.0, 2.0), (2, 1600.0, 1.0),
                          (3, 2000.0, 1.0)]:
            assert planner.add_stream(sid, 1.0, r, s)
        own = planner.entries[2].subs[0]
        t, p = own.group.total_p, own.processing_time
        assert (t - p) + p != t
        assert _check_knob(planner, 2, planner._knob(300.0, 5.0)) in {"miss", "skipped"}

    def test_two_sub_candidates_with_a_partial_placement(self):
        # Two groups, one nearly full: the first sub of a k=2 knob lands,
        # the second fits nowhere, so the miss re-rounds a group it left.
        planner = _planner(2, 1)
        planner.add_stream(0, 1.0, 1600.0, 5.0)
        planner.add_stream(1, 1.0, 300.0, 1.0)
        two_sub = [k for k in planner._candidates if k.k == 2]
        assert two_sub
        seen = {_check_knob(planner, 1, knob) for knob in two_sub}
        assert seen - {"skip"}


_PERIODS = [1 / 30, 1 / 15, 0.1, 0.2, 0.5, 1.0]


class _Member:
    def __init__(self, period, ptime):
        self.period, self.processing_time, self.rate = period, ptime, 0.0


def _groups(members, n_groups) -> list[ZeroJitterGroup]:
    groups = [ZeroJitterGroup() for _ in range(n_groups)]
    for j, (q, p) in enumerate(members):
        groups[j % n_groups].add(_Member(q, p))
    return groups


def _scalar_excludes(groups, open_, top, period, ptime, pmin, total_p) -> bool:
    """The bound's verdict for one query, one group at a time."""
    min_total_p, max_slack = math.inf, -math.inf
    for i, group in enumerate(groups):
        top = max(top, group.total_p, group.pmin if group.members else top)
        if i != open_:
            min_total_p = min(min_total_p, group.total_p)
            max_slack = max(max_slack, group.pmin - group.total_p)
    margin = 1e-9 + max(top, 1e-9) * 2.0**-48
    slack = max(min(period - min_total_p, max_slack), min(period, pmin) - total_p)
    return ptime > slack + margin


def _lowered(x: float, drift: float) -> float:
    """The float nearest ``x - drift`` that is no further than ``drift`` from x."""
    y = x - drift
    while Fraction(x) - Fraction(y) > Fraction(drift):
        y = math.nextafter(y, x)
    return y


class TestFitBound:
    @given(
        members=st.lists(
            st.tuples(st.sampled_from(_PERIODS), st.floats(0.0, 0.3)), max_size=6,
        ),
        n_groups=st.integers(1, 4),
        period=st.sampled_from(_PERIODS),
        nudge=st.integers(-4, 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_never_excludes_a_fit_at_the_boundary(self, members, n_groups,
                                                  period, nudge):
        groups = _groups(members, n_groups)
        # A processing time a few ulps around the loosest group's capacity.
        caps = [min(period, g.pmin) - g.total_p + 1e-9 for g in groups]
        ptime = max(caps)
        for _ in range(abs(nudge)):
            ptime = math.nextafter(ptime, math.inf if nudge > 0 else -math.inf)
        if ptime <= 0:
            return
        fits = first_fit(groups, _Member(period, ptime)) >= 0
        top = max(period, ptime)
        open_ = groups[0]
        if _excluded(groups, (0, open_.pmin, open_.total_p), period, ptime, top):
            assert not fits
        # No open group: the whole-table check admit makes, elementwise
        # the verdict of a query that opens none.
        excluded = FitBound.excludes_all(groups, np.array([period]), np.array([ptime]), top)
        assert excluded == _excluded(groups, (-1, math.inf, math.inf), period, ptime, top)
        if excluded:
            assert not fits

    @given(
        members=st.lists(
            st.tuples(st.sampled_from(_PERIODS), st.floats(0.0, 0.3)), max_size=8,
        ),
        n_groups=st.integers(1, 4),
        open_=st.integers(-1, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_exclusions_without_drift_are_the_scalar_verdicts(self, members, n_groups,
                                                              open_):
        groups = _groups(members, n_groups)
        open_ = open_ if open_ < n_groups else -1
        pmin, total_p = ((groups[open_].pmin, groups[open_].total_p)
                         if open_ >= 0 else (math.inf, math.inf))
        periods = np.array(_PERIODS * 3)
        ptimes = np.linspace(0.0, 0.4, periods.size)
        got = FitBound.exclusions(groups, [(open_, pmin, total_p)], periods, ptimes,
                                  1.0, 0)
        assert got.tolist() == [[_scalar_excludes(groups, open_, 1.0, t, p, pmin, total_p)
                                 for t, p in zip(periods, ptimes)]]

    @given(
        members=st.lists(
            st.tuples(st.sampled_from(_PERIODS), st.floats(0.0, 0.3)), max_size=8,
        ),
        n_groups=st.integers(1, 4),
        open_=st.integers(-1, 3),
        period=st.sampled_from(_PERIODS),
        steps=st.sampled_from([0, 1, 64, 1000]),
    )
    @settings(max_examples=300, deadline=None)
    def test_exclusions_stay_sound_under_the_drift_they_allow(self, members, n_groups,
                                                             open_, period, steps):
        # The smallest processing time the verdict excludes, then every
        # group sum (the open one's too) lowered by the D = steps·uA the
        # widened margin allows: the candidate must still fit nowhere.
        groups = _groups(members, n_groups)
        open_ = open_ if open_ < n_groups else -1
        view = None
        if open_ >= 0:
            home = groups[open_]
            view = GroupView(home.total_p, home.periods, home.pmin, home.aligned)
        row = [(open_, view.pmin, view.total_p) if view else (open_, math.inf, math.inf)]
        periods = np.array([period])

        def excluded(p):
            return bool(FitBound.exclusions(groups, row, periods, np.array([p]), 1.0,
                                            steps)[0, 0])

        lo, hi = 0.0, 2.0
        if excluded(lo) or not excluded(hi):
            return
        while math.nextafter(lo, hi) < hi:  # bisect on the float grid
            mid = lo + (hi - lo) / 2
            mid = mid if lo < mid < hi else math.nextafter(lo, hi)
            lo, hi = (lo, mid) if excluded(mid) else (mid, hi)
        ptime = hi
        values = [g.total_p for g in groups] + [max(g.pmin for g in groups if g.members)
                                                if any(g.members for g in groups) else 1.0]
        drift = steps * 2.0**-53 * 2 * max(1.0, *values)
        scan = list(groups)
        for i, group in enumerate(groups):
            drifted = copy.copy(group)
            drifted.total_p = _lowered(group.total_p, drift)
            scan[i] = drifted
        if view is not None:
            scan[open_] = view.at(_lowered(view.total_p, drift))
        assert first_fit(scan, _Member(period, ptime)) < 0

    def test_excludes_far_over_capacity(self):
        group = ZeroJitterGroup()
        got = FitBound.exclusions([group], [(0, group.pmin, group.total_p)],
                                  np.array([0.5, 0.5]), np.array([0.5, 0.6]), 1.0, 0)
        assert got.tolist() == [[False, True]]


@pytest.mark.parametrize("seed", [0, 1])
def test_population_solve_matches_the_round_trip(seed):
    """A whole solve: the query path against a reconfigure per knob."""
    fast = _planner(6, seed)
    slow = copy.deepcopy(fast)
    textures = {
        sid: float(t)
        for sid, t in enumerate(np.random.default_rng(seed).uniform(0.6, 1.4, 60))
    }
    slow._upgrade_pass = lambda entries: _naive_pass(slow, [e.sid for e in entries])
    assert fast.solve_all(textures) == slow.solve_all(textures)
    assert [(g.total_p, g.rate) for g in fast.groups] == [
        (g.total_p, g.rate) for g in slow.groups
    ]
    assert [[m.owner for m in g.members] for g in fast.groups] == [
        [m.owner for m in g.members] for g in slow.groups
    ]


def _drift_checked(monkeypatch, planner) -> list[bool]:
    """Run the upgrade pass over every entry, checking at each scan and
    settle made while a block's verdicts are in use that no group sum has
    moved further from the value they read than the steps·uA they were
    widened by; returns, per check, whether some sum had moved at all."""
    state = {"read": None}
    checked = []
    exclusions = FitBound.exclusions

    def read(groups, opens, periods, ptimes, top, steps):
        values = [g.total_p for g in groups] + [g.pmin for g in groups if g.members]
        drift = Fraction(steps) * Fraction(2.0**-53) * 2 * Fraction(max(top, *values))
        state["read"] = ([Fraction(g.total_p) for g in groups], drift)
        return exclusions(groups, opens, periods, ptimes, top, steps)

    def spied(name, before=True, drops=lambda *a: False):
        method = getattr(planner, name)

        def call(*args):
            if before and state["read"] is not None:
                sums, drift = state["read"]
                worst = max(abs(Fraction(g.total_p) - t) for g, t in zip(planner.groups, sums))
                assert worst <= drift
                checked.append(worst > 0)
            dropped = drops(*args)
            out = method(*args)
            if dropped or not before:
                state["read"] = None  # the pass drops its verdicts here
            return out

        monkeypatch.setattr(planner, name, call)

    def alone(entry, *_):
        return len(entry.subs[0].group.members) == len(entry.subs)

    monkeypatch.setattr(FitBound, "exclusions", staticmethod(read))
    spied("_landing")
    spied("_settle_misses", drops=alone)
    spied("_settle_miss", drops=alone)
    spied("_move", before=False)
    spied("_reconfigure", before=False)
    spied("_upgrade_block", before=False)
    planner._upgrade_pass([planner.entries[sid] for sid in sorted(planner.entries)])
    return checked


class TestDriftBudget:
    """The widened verdicts against the drift a block's misses really leave."""

    def test_a_rerounding_miss_stays_within_the_budget(self, monkeypatch):
        planner = IncrementalPlanner([10.0], preference=_planner(1, 0).preference)
        for sid, r, s in [(0, 900.0, 1.0), (1, 300.0, 2.0), (2, 1600.0, 1.0),
                          (3, 2000.0, 1.0)]:
            assert planner.add_stream(sid, 1.0, r, s)
        assert any(_drift_checked(monkeypatch, planner))

    @given(n_servers=st.integers(1, 4), seed=st.integers(0, 3), ops=_OPS)
    @settings(max_examples=60, deadline=None)
    def test_random_states_stay_within_the_budget(self, n_servers, seed, ops):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _drift_checked(monkeypatch, _build(_planner(n_servers, seed), ops))
