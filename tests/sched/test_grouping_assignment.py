"""Tests for Algorithm 1: grouping and Hungarian assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    GroupingResult,
    InfeasibleScheduleError,
    PeriodicStream,
    communication_latency,
    const1_satisfied,
    const2_satisfied,
    divisor_priorities,
    group_streams,
    resolve_assignment,
)


def _stream(sid, fps, p, bits=1e5):
    return PeriodicStream(
        stream_id=sid, fps=fps, resolution=960.0,
        processing_time=p, bits_per_frame=bits,
    )


class TestDivisorPriorities:
    def test_counts_dividing_periods(self):
        # periods 0.1, 0.2, 0.3 (sorted): 0.2 divisible by 0.1 (1),
        # 0.3 divisible by 0.1 (1, not by 0.2)
        streams = [_stream(0, 10, 0.01), _stream(1, 5, 0.01), _stream(2, 1 / 0.3, 0.01)]
        assert divisor_priorities(streams) == [0, 1, 1]

    def test_all_equal_periods(self):
        streams = [_stream(i, 10, 0.01) for i in range(3)]
        assert divisor_priorities(streams) == [0, 1, 2]

    def test_empty(self):
        assert divisor_priorities([]) == []


class TestGroupStreams:
    def test_single_stream(self):
        res = group_streams([_stream(0, 10, 0.05)], 2)
        assert sum(1 for g in res.groups if g) == 1
        assert res.validate()

    def test_harmonic_streams_share_group(self):
        streams = [_stream(0, 10, 0.03), _stream(1, 5, 0.03)]
        res = group_streams(streams, 2)
        assert sum(1 for g in res.groups if g) == 1

    def test_nonharmonic_streams_separated(self):
        # periods 0.3 and 0.4 can't share a group (not harmonic)
        streams = [_stream(0, 1 / 0.3, 0.05), _stream(1, 2.5, 0.05)]
        res = group_streams(streams, 2)
        assert sum(1 for g in res.groups if g) == 2

    def test_capacity_forces_second_group(self):
        # each p = 0.06, T = 0.1 -> two fit (0.12 > 0.1? no: 0.12 > 0.1, only one fits)
        streams = [_stream(0, 10, 0.06), _stream(1, 10, 0.06)]
        res = group_streams(streams, 2)
        assert sum(1 for g in res.groups if g) == 2

    def test_infeasible_raises(self):
        streams = [_stream(i, 10, 0.09) for i in range(3)]
        with pytest.raises(InfeasibleScheduleError):
            group_streams(streams, 2)

    def test_best_effort_mode(self):
        streams = [_stream(i, 10, 0.09) for i in range(3)]
        res = group_streams(streams, 2, strict=False)
        placed = sum(len(g) for g in res.groups)
        assert placed == 3  # all placed somewhere

    def test_result_satisfies_const2(self):
        streams = [
            _stream(0, 10, 0.02),
            _stream(1, 5, 0.02),
            _stream(2, 2.5, 0.02),
            _stream(3, 1 / 0.3, 0.02),
        ]
        res = group_streams(streams, 4)
        assignment = [res.group_of[s.stream_id] for s in streams]
        assert const2_satisfied(streams, assignment)
        assert const1_satisfied(streams, assignment)

    def test_group_of_mapping_consistent(self):
        streams = [_stream(i, 10, 0.02) for i in range(4)]
        res = group_streams(streams, 4)
        for j, grp in enumerate(res.groups):
            for s in grp:
                assert res.group_of[s.stream_id] == j

    def test_invalid_n_servers(self):
        with pytest.raises(ValueError):
            group_streams([_stream(0, 10, 0.01)], 0)

    @pytest.mark.parametrize(
        ("n_servers", "strict", "scans"),
        [
            (3, True, 1 + 2 + 3),  # each stream opens the next group
            (2, True, 1 + 2 + 2),  # the third fits nowhere: N scans, then raise
            (2, False, 1 + 2 + 2),  # best effort places it after the same N scans
        ],
    )
    def test_group_scans_count_the_groups_examined(self, n_servers, strict, scans):
        from repro.obs import telemetry

        streams = [_stream(i, 10, 0.09) for i in range(3)]  # no two share a group
        telemetry.reset()
        telemetry.enable()
        try:
            if strict and n_servers < 3:
                with pytest.raises(InfeasibleScheduleError):
                    group_streams(streams, n_servers, strict=True)
            else:
                group_streams(streams, n_servers, strict=strict)
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        assert counters["sched.grouping.group_scans"] == scans

    @given(
        st.lists(
            st.tuples(st.sampled_from([1, 2, 5, 10, 15, 30]), st.floats(0.005, 0.03)),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_property_feasible_grouping_meets_const2(self, raw):
        streams = [_stream(i, fps, p) for i, (fps, p) in enumerate(raw)]
        try:
            res = group_streams(streams, 5)
        except InfeasibleScheduleError:
            return
        assert res.validate()
        assignment = [res.group_of[s.stream_id] for s in streams]
        assert const2_satisfied(streams, assignment)
        assert const1_satisfied(streams, assignment)


class TestAssignment:
    def test_heavy_group_gets_fat_link(self):
        heavy = [_stream(0, 10, 0.01, bits=1e6)]
        light = [_stream(1, 10, 0.01, bits=1e3)]
        grouping = GroupingResult(groups=[heavy, light])
        q = resolve_assignment(grouping, [5.0, 50.0], heavy + light)
        # the heavy stream must land on the 50 Mbps server (idx 1)
        assert q == [1, 0]

    def test_resolve_assignment_order(self):
        s0 = _stream(0, 10, 0.01, bits=1e6)
        s1 = _stream(1, 10, 0.01, bits=1e3)
        grouping = GroupingResult(groups=[[s1], [s0]])
        q = resolve_assignment(grouping, [5.0, 50.0], [s0, s1])
        assert len(q) == 2
        # s0 heavy -> fat link
        assert q[0] == 1

    def test_more_groups_than_servers_raises(self):
        grouping = GroupingResult(groups=[[_stream(0, 10, 0.01)], [_stream(1, 10, 0.01)]])
        with pytest.raises(ValueError, match="2 groups but only 1 servers"):
            resolve_assignment(grouping, [10.0], grouping.groups[0] + grouping.groups[1])

    def test_empty_groups_absorb_spare_servers(self):
        grouping = GroupingResult(groups=[[_stream(0, 10, 0.01)], [], []])
        q = resolve_assignment(grouping, [10.0, 20.0, 30.0], grouping.groups[0])
        assert len(q) == 1 and 0 <= q[0] < 3

    def test_assignment_minimizes_cost(self):
        """Hungarian beats the reversed mapping on total bits/bandwidth."""
        g1 = [_stream(0, 30, 0.005, bits=2e6)]
        g2 = [_stream(1, 5, 0.005, bits=1e5)]
        grouping = GroupingResult(groups=[g1, g2])
        streams = g1 + g2
        q_opt = resolve_assignment(grouping, [5.0, 50.0], streams)
        bad_q = [1 - x for x in q_opt]
        assert communication_latency(streams, q_opt, [5.0, 50.0]) <= communication_latency(
            streams, bad_q, [5.0, 50.0]
        )


class TestCommunicationLatency:
    def test_basic(self):
        s = _stream(0, 10, 0.01, bits=1e6)
        lat = communication_latency([s], [0], [10.0])
        assert lat == pytest.approx(0.1)

    def test_dropped_excluded(self):
        s = _stream(0, 10, 0.01, bits=1e6)
        assert communication_latency([s], [-1], [10.0]) == 0.0

    def test_out_of_range_raises(self):
        s = _stream(0, 10, 0.01, bits=1e6)
        with pytest.raises(ValueError):
            communication_latency([s], [5], [10.0])
