"""Serve events: validation, queue ordering, log round-trips."""

import pytest

from repro.serve import EventLog, EventQueue, ServeEvent


class TestServeEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown serve event kind"):
            ServeEvent(time=0.0, kind="explode", target=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time must be >= 0"):
            ServeEvent(time=-1.0, kind="stream_join", target=0)

    def test_bandwidth_factor_validated(self):
        with pytest.raises(ValueError, match="bandwidth factor"):
            ServeEvent(time=0.0, kind="bandwidth_drift", target=0, value=0.0)
        with pytest.raises(ValueError, match="bandwidth factor"):
            ServeEvent(time=0.0, kind="bandwidth_drift", target=0, value=1.5)

    def test_bandwidth_default_factor_is_restore(self):
        e = ServeEvent(time=0.0, kind="bandwidth_drift", target=1)
        assert e.value == 1.0

    def test_target_required_except_drift(self):
        with pytest.raises(ValueError, match="non-negative target"):
            ServeEvent(time=0.0, kind="stream_leave")
        assert ServeEvent(time=0.0, kind="drift").target == -1

    def test_join_texture_positive(self):
        with pytest.raises(ValueError, match="texture"):
            ServeEvent(time=0.0, kind="stream_join", target=9, value=-0.5)

    def test_dict_round_trip(self):
        e = ServeEvent(time=2.5, kind="stream_join", target=7, value=1.2)
        assert ServeEvent.from_dict(e.to_dict()) == e


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(ServeEvent(time=3.0, kind="drift"))
        q.push(ServeEvent(time=1.0, kind="stream_leave", target=0))
        q.push(ServeEvent(time=2.0, kind="server_up", target=1))
        assert [e.time for e in q] == [1.0, 2.0, 3.0]

    def test_ties_break_by_submission_order(self):
        q = EventQueue()
        a = ServeEvent(time=1.0, kind="stream_join", target=10)
        b = ServeEvent(time=1.0, kind="stream_leave", target=10)
        q.push(a)
        q.push(b)
        assert q.pop() is a
        assert q.pop() is b

    def test_peek_does_not_consume(self):
        q = EventQueue([ServeEvent(time=1.0, kind="drift")])
        assert q.peek().time == 1.0
        assert len(q) == 1

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestEventLog:
    def test_events_are_time_sorted(self):
        log = EventLog(
            events=(
                ServeEvent(time=5.0, kind="drift"),
                ServeEvent(time=1.0, kind="stream_leave", target=2),
            )
        )
        assert [e.time for e in log] == [1.0, 5.0]

    def test_json_round_trip(self, tmp_path):
        log = EventLog(
            events=(
                ServeEvent(time=1.0, kind="stream_join", target=6, value=0.9),
                ServeEvent(time=2.0, kind="bandwidth_drift", target=0, value=0.5),
            ),
            seed=42,
            n_streams=6,
            n_servers=4,
            horizon_s=3600.0,
        )
        path = log.save(tmp_path / "events.json")
        loaded = EventLog.load(path)
        assert loaded == log

    def test_save_is_byte_stable(self, tmp_path):
        log = EventLog(
            events=(ServeEvent(time=1.0, kind="drift"),), seed=0, n_streams=1,
            n_servers=1, horizon_s=10.0,
        )
        a = log.save(tmp_path / "a.json").read_text()
        b = log.save(tmp_path / "b.json").read_text()
        assert a == b
