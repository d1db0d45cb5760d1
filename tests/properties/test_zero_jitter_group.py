"""Differential tests: the shared Theorem-3 group against its reference.

:class:`~repro.sched.grouping.ZeroJitterGroup` is the one placement step
behind batch Algorithm 1, ``exact_grouping`` and the serve planner.
These properties pin it to :func:`~repro.sched.theory.theorem3_conditions`,
the exact-rational reference predicate, over the stream shapes the
system really produces: default ``ConfigSpace`` frame rates, their
high-rate split sub-periods, and Jetson NX processing times.  The
reference placements below re-check every insertion from scratch with
``theorem3_conditions``, i.e. the copy-and-recheck first fit the group
replaced, kept here as the oracle.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import ConfigSpace
from repro.sched import (
    InfeasibleScheduleError,
    PeriodicStream,
    ZeroJitterGroup,
    divisor_priorities,
    exact_grouping,
    group_streams,
    theorem3_conditions,
)
from repro.sched.grouping import first_fit
from repro.sched.streams import split_count
from repro.video.profiles import JETSON_NX_PROFILE


def _shapes() -> list[tuple[float, float, float]]:
    """Every (sub-stream fps, resolution, processing time) the knobs yield."""
    space = ConfigSpace()
    out = set()
    for r in space.resolutions:
        p = JETSON_NX_PROFILE.processing_time(r)
        for s in space.fps_values:
            out.add((s / split_count(s, p), r, p))
    return sorted(out)


SHAPES = _shapes()


@st.composite
def stream_sets(draw, min_size=1, max_size=10):
    picks = draw(st.lists(st.sampled_from(SHAPES), min_size=min_size,
                          max_size=max_size))
    return [
        PeriodicStream(
            stream_id=i, fps=fps, resolution=r, processing_time=p,
            bits_per_frame=1e4 * r,
        )
        for i, (fps, r, p) in enumerate(picks)
    ]


#: periods with integer and non-integer ratios, including split-style
#: noise (1 / (30 / 4)) next to its exact value
_HARMONIC_PERIODS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0 / (30.0 / 4.0), 2 / 15)


def _reference_fits(group, candidate) -> bool:
    """Theorem 3 from the member list: rounded periods, full loop."""
    period = candidate.period
    pmin = min([m.period for m in group.members] + [period])
    total = sum(m.processing_time for m in group.members)
    if group.total_p + candidate.processing_time > pmin + 1e-9:
        return False
    assert abs(group.total_p - total) < 1e-12
    for q in {round(m.period, 12) for m in group.members}:
        ratio = q / pmin
        if abs(ratio - round(ratio)) > 1e-9:
            return False
    ratio = period / pmin
    return abs(ratio - round(ratio)) <= 1e-9


def _reference_first_fit(streams, n_servers, strict):
    """Algorithm 1 grouping with a from-scratch Theorem-3 check per insert."""
    by_period = sorted(streams, key=lambda s: (s.period, s.stream_id))
    prios = divisor_priorities(by_period)
    order = sorted(range(len(by_period)), key=lambda i: prios[i])
    groups = [[] for _ in range(n_servers)]
    for s in (by_period[i] for i in order):
        for grp in groups:
            if not grp or theorem3_conditions([*grp, s]):
                grp.append(s)
                break
        else:
            if strict:
                raise InfeasibleScheduleError(f"stream {s.stream_id}")
            loads = [sum(x.load for x in g) for g in groups]
            groups[loads.index(min(loads))].append(s)
    return groups


def _reference_exact_feasible(streams, n_servers) -> bool:
    """Does any assignment to ``n_servers`` groups satisfy Theorem 3?

    Enumerates every assignment and checks only complete groups: Theorem
    3 is not closed under subsets, so a search that prunes partial
    groups is not a valid oracle.
    """
    for assignment in itertools.product(range(n_servers), repeat=len(streams)):
        groups = [[] for _ in range(n_servers)]
        for s, j in zip(streams, assignment):
            groups[j].append(s)
        if all(theorem3_conditions(g) for g in groups if g):
            return True
    return False


class TestZeroJitterGroup:
    @given(
        pool=stream_sets(max_size=8),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_fits_equals_theorem3_after_any_add_remove(self, pool, ops):
        group = ZeroJitterGroup()
        for is_add, i in ops:
            if is_add or not group.members:
                group.add(pool[i % len(pool)])
            else:
                group.remove(group.members[i % len(group.members)])
            for cand in pool:
                assert group.fits(cand) == theorem3_conditions(
                    [*group.members, cand]
                )

    @given(
        pool=st.lists(
            st.tuples(st.sampled_from(_HARMONIC_PERIODS), st.floats(1e-4, 0.02)),
            min_size=1,
            max_size=8,
        ),
        ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)), max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_state_equals_the_full_rescan(self, pool, ops):
        # Light streams on near-harmonic periods: alignment, not
        # capacity, decides most verdicts, and misaligned groups arise.
        streams = [
            PeriodicStream(stream_id=i, fps=1.0 / t, resolution=300.0,
                           processing_time=p, bits_per_frame=1e4)
            for i, (t, p) in enumerate(pool)
        ]
        group = ZeroJitterGroup()
        for is_add, i in ops:
            if is_add or not group.members:
                group.add(streams[i % len(streams)])
            else:
                group.remove(group.members[i % len(group.members)])
            if group.members:
                assert group.pmin == min(m.period for m in group.members)
            verdicts = [group.fits(c) for c in streams]
            assert verdicts == [_reference_fits(group, c) for c in streams]
            assert first_fit([group, group], streams[0], 1) == (
                1 if verdicts[0] else -1
            )

    @given(pool=stream_sets(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_remove_restores_empty_state(self, pool):
        group = ZeroJitterGroup()
        for s in pool:
            group.add(s)
        for s in list(pool):
            group.remove(s)
        assert group.members == [] and group.periods == {}
        assert (group.total_p, group.rate) == (0.0, 0.0)
        assert group.pmin == float("inf")


class TestBatchGroupingMatchesReference:
    @given(
        streams=stream_sets(max_size=14),
        n_servers=st.integers(1, 5),
        strict=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_groups_in_same_order(self, streams, n_servers, strict):
        try:
            expected = _reference_first_fit(streams, n_servers, strict)
        except InfeasibleScheduleError:
            with pytest.raises(InfeasibleScheduleError):
                group_streams(streams, n_servers, strict=strict)
            return
        assert group_streams(streams, n_servers, strict=strict).groups == expected


class TestExactGroupingMatchesReference:
    def test_subset_violation_does_not_prune_a_feasible_group(self):
        # {10, 5, 2} fps only fits as a whole: its 5 and 2 fps members
        # alone break harmonicity.  Heavy-first pruning missed it.
        spec = [(1.0, 2000.0), (1.0, 2000.0), (2.0, 600.0), (2.5, 2000.0),
                (5.0, 600.0), (10.0, 300.0)]
        streams = [
            PeriodicStream(
                stream_id=i, fps=fps, resolution=r,
                processing_time=JETSON_NX_PROFILE.processing_time(r),
                bits_per_frame=1e4 * r,
            )
            for i, (fps, r) in enumerate(spec)
        ]
        assert _reference_exact_feasible(streams, 3)
        assert exact_grouping(streams, 3).validate()

    @given(streams=stream_sets(max_size=6), n_servers=st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_finds_a_grouping_whenever_the_reference_does(
        self, streams, n_servers
    ):
        feasible = _reference_exact_feasible(streams, n_servers)
        try:
            result = exact_grouping(streams, n_servers)
        except InfeasibleScheduleError:
            assert not feasible
            return
        assert feasible
        assert result.validate()
        assert sorted(s.stream_id for g in result.groups for s in g) == [
            s.stream_id for s in streams
        ]

    @given(streams=stream_sets(max_size=7), n_servers=st.integers(1, 3))
    @settings(max_examples=80, deadline=None)
    def test_feasible_whenever_first_fit_is(self, streams, n_servers):
        try:
            _reference_first_fit(streams, n_servers, strict=True)
        except InfeasibleScheduleError:
            return
        assert exact_grouping(streams, n_servers).validate()
