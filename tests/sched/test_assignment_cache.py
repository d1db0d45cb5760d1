"""Tests for the memoized Hungarian group→server assignment."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from repro.obs import telemetry
from repro.sched import PeriodicStream, group_streams
from repro.sched import assignment
from repro.sched.assignment import (
    clear_assignment_cache,
    resolve_assignment,
    solve_group_assignment,
)
from repro.utils.lru import LRUCache


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_assignment_cache()
    yield
    clear_assignment_cache()


def _fresh_solve(rate, bw):
    """Reference oracle: an uncached Hungarian solve of the same cost matrix."""
    rate = np.asarray(rate, dtype=float)
    cost = rate[:, None] / (np.asarray(bw, dtype=float)[None, :] * 1e6)
    row, col = linear_sum_assignment(cost)
    server_of_group = np.full(rate.size, -1, dtype=int)
    server_of_group[row] = col
    return tuple(int(v) for v in server_of_group)


def _streams(n, fps=10.0):
    return [
        PeriodicStream(
            stream_id=i,
            fps=fps,
            resolution=960.0,
            processing_time=0.01,
            bits_per_frame=1e5 * (i + 1),
        )
        for i in range(n)
    ]


class TestSolveGroupAssignment:
    def test_cached_equals_fresh(self):
        rate = np.array([3e6, 1e6, 2e6])
        bw = np.array([10.0, 30.0, 20.0])
        cached = solve_group_assignment(rate, bw)
        again = solve_group_assignment(rate, bw)
        assert cached == again == _fresh_solve(rate, bw)

    def test_counts_hits_and_misses(self):
        names = ("sched.assign_cache_hits", "sched.assign_cache_misses")
        telemetry.enable()
        try:
            before = telemetry.snapshot()["counters"]
            rate, bw = np.array([3e6, 1e6]), np.array([10.0, 30.0])
            solve_group_assignment(rate, bw)
            solve_group_assignment(rate, bw)
            after = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert [after[k] - before.get(k, 0) for k in names] == [1, 1]

    def test_heaviest_group_gets_fattest_uplink(self):
        rate = np.array([1e6, 9e6])
        bw = np.array([5.0, 30.0])
        q = solve_group_assignment(rate, bw)
        assert q[1] == 1  # heavy group on the 30 Mbps server
        assert q[0] == 0

    def test_cache_grows_and_clears(self):
        bw = np.array([10.0, 20.0])
        solve_group_assignment(np.array([1e6, 2e6]), bw)
        solve_group_assignment(np.array([2e6, 1e6]), bw)
        assert len(assignment._ASSIGN_CACHE) == 2
        clear_assignment_cache()
        assert len(assignment._ASSIGN_CACHE) == 0

    def test_maxsize_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(assignment._ASSIGN_CACHE, "maxsize", 2)
        bw = np.array([10.0, 20.0, 30.0])
        for k in range(3):
            solve_group_assignment(np.array([1e6 * (k + 1), 2e6, 3e6]), bw)
        assert len(assignment._ASSIGN_CACHE) == 2

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0, counters="sched.assign_cache")

    def test_different_bandwidths_do_not_collide(self):
        rate = np.array([5e6, 1e6])
        a = solve_group_assignment(rate, np.array([10.0, 30.0]))
        b = solve_group_assignment(rate, np.array([30.0, 10.0]))
        assert a != b  # heavy group follows the fat uplink


class TestCallerConsistency:
    def test_resolve_cached_vs_uncached(self):
        streams = _streams(6)
        grouping = group_streams(streams, 3, strict=False)
        bw = [10.0, 20.0, 30.0]
        q_cached = resolve_assignment(grouping, bw, streams)
        assert resolve_assignment(grouping, bw, streams) == q_cached
        rates = [sum(s.bits_per_frame * s.fps for s in grp) for grp in grouping.groups]
        server_of_group = _fresh_solve(rates, bw)
        assert q_cached == [server_of_group[grouping.group_of[s.stream_id]] for s in streams]

    def test_resolve_assignment_repeat_hits_cache(self):
        streams = _streams(6)
        grouping = group_streams(streams, 3, strict=False)
        bw = [10.0, 20.0, 30.0]
        q1 = resolve_assignment(grouping, bw, streams)
        size_after_first = len(assignment._ASSIGN_CACHE)
        q2 = resolve_assignment(grouping, bw, streams)
        assert q1 == q2
        assert len(assignment._ASSIGN_CACHE) == size_after_first  # pure hit, no growth

    def test_resolve_follows_caller_stream_order(self):
        streams = _streams(5)
        grouping = group_streams(streams, 3, strict=False)
        bw = [10.0, 20.0, 30.0]
        by_stream = resolve_assignment(grouping, bw, streams)
        assert resolve_assignment(grouping, bw, streams[::-1]) == by_stream[::-1]
