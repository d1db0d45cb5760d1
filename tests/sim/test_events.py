"""Tests for the discrete-event engine."""

import pytest

from repro.sim.events import EventQueue


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(2.0, lambda: log.append("b"))
        q.schedule(1.0, lambda: log.append("a"))
        q.schedule(3.0, lambda: log.append("c"))
        q.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fifo(self):
        q = EventQueue()
        log = []
        for name in "abc":
            q.schedule(1.0, lambda n=name: log.append(n))
        q.run()
        assert log == ["a", "b", "c"]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append("low"), priority=1)
        q.schedule(1.0, lambda: log.append("high"), priority=-1)
        q.run()
        assert log == ["high", "low"]

    def test_clock_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(5.0, lambda: seen.append(q.now))
        q.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_past(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run()
        with pytest.raises(ValueError):
            q.schedule(1.0, lambda: None)

    def test_run_until_horizon(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda: log.append(1))
        q.schedule(10.0, lambda: log.append(10))
        q.run(until=5.0)
        assert log == [1]
        assert q.now == 5.0  # clock advanced to the horizon
        assert len(q) == 1  # the 10.0 event remains

    def test_self_rescheduling_with_budget(self):
        q = EventQueue()

        def loop():
            q.schedule(q.now + 0.1, loop)

        q.schedule(0.0, loop)
        with pytest.raises(RuntimeError):
            q.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert EventQueue().step() is False

    def test_event_count_returned(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(float(i), lambda: None)
        assert q.run() == 5
