"""Tests for PeriodicStream and high-rate splitting (§3)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sched import PeriodicStream, split_high_rate_streams
from repro.sched.streams import split_count


def _stream(sid=0, fps=10.0, p=0.05, r=960.0):
    return PeriodicStream(
        stream_id=sid, fps=fps, resolution=r, processing_time=p, bits_per_frame=1e5
    )


class TestPeriodicStream:
    def test_period_inverse_of_fps(self):
        assert _stream(fps=20.0).period == pytest.approx(0.05)

    def test_load(self):
        assert _stream(fps=10.0, p=0.05).load == pytest.approx(0.5)

    def test_high_rate_detection(self):
        assert split_count(10.0, 0.15) == 2
        assert split_count(10.0, 0.05) == 1

    def test_boundary_not_high_rate(self):
        # p == T exactly: one frame finishes just as the next arrives.
        assert split_count(10.0, 0.1) == 1

    def test_parent_defaults_to_self(self):
        assert _stream(sid=7).parent_id == 7

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            _stream(fps=-1.0)
        with pytest.raises(ValueError):
            _stream(p=0.0)


class TestSplitHighRateStreams:
    def test_low_rate_unchanged(self):
        s = _stream(fps=10.0, p=0.05)
        out = split_high_rate_streams([s])
        assert out == [s]

    def test_split_count_matches_ceiling(self):
        # s*p = 10 * 0.25 = 2.5 -> 3 sub-streams (⌈s_i p_i⌉, §3)
        s = _stream(fps=10.0, p=0.25)
        out = split_high_rate_streams([s])
        assert len(out) == 3
        assert all(sub.parent_id == s.stream_id for sub in out)

    def test_substreams_not_high_rate(self):
        s = _stream(fps=30.0, p=0.21)
        out = split_high_rate_streams([s])
        assert all(split_count(sub.fps, sub.processing_time) == 1 for sub in out)

    def test_total_rate_preserved(self):
        s = _stream(fps=12.0, p=0.3)
        out = split_high_rate_streams([s])
        assert sum(sub.fps for sub in out) == pytest.approx(s.fps)

    def test_fresh_ids_assigned(self):
        s1 = _stream(sid=0, fps=10.0, p=0.25)
        s2 = _stream(sid=1, fps=5.0, p=0.05)
        out = split_high_rate_streams([s1, s2])
        ids = [x.stream_id for x in out]
        assert len(set(ids)) == len(ids)

    def test_id_start_override(self):
        s = _stream(sid=0, fps=10.0, p=0.25)
        out = split_high_rate_streams([s], id_start=100)
        assert [x.stream_id for x in out] == [100, 101, 102]

    def test_phases_enumerate(self):
        s = _stream(fps=10.0, p=0.35)
        out = split_high_rate_streams([s])
        assert [x.phase for x in out] == list(range(len(out)))

    def test_mixed_order_preserved(self):
        low = _stream(sid=0, fps=5.0, p=0.05)
        high = _stream(sid=1, fps=10.0, p=0.25)
        out = split_high_rate_streams([low, high])
        assert out[0] == low
        assert all(x.parent_id == 1 for x in out[1:])

    @given(
        st.integers(1, 60),
        st.floats(0.01, 0.5, allow_nan=False),
    )
    def test_property_substreams_feasible_alone(self, fps, p):
        s = PeriodicStream(
            stream_id=0, fps=float(fps), resolution=960.0,
            processing_time=p, bits_per_frame=1.0,
        )
        out = split_high_rate_streams([s])
        for sub in out:
            # §3: after splitting, no stream self-contends on one server.
            assert sub.processing_time <= sub.period + 1e-9
        # count is exactly ⌈s·p⌉ when split
        k = math.ceil(fps * p - 1e-12)
        assert len(out) == max(k, 1)
