"""Tests for the repro.obs telemetry registry."""

import json
import threading

import pytest

from repro.obs import JsonlSink, MemorySink, NullSink, Telemetry
from repro.obs.metrics import DECISION_WINDOW, percentile
from repro.obs.telemetry import _NULL_SPAN


@pytest.fixture
def tel():
    t = Telemetry()
    t.enable(MemorySink())
    yield t
    t.disable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not Telemetry().enabled

    def test_span_returns_shared_null_span(self):
        t = Telemetry()
        assert t.span("a") is _NULL_SPAN
        assert t.span("b") is t.span("c")

    def test_null_span_is_context_manager(self):
        t = Telemetry()
        with t.span("x"):
            pass

    def test_counter_gauge_event_noop(self):
        t = Telemetry()
        t.counter("c")
        t.gauge("g", 1.0)
        t.event("e", x=1)
        rep = t.report()
        assert rep["counters"] == {}
        assert rep["gauges"] == {}
        assert rep["spans"] == {}


class TestSpans:
    def test_records_count_and_time(self, tel):
        with tel.span("phase"):
            pass
        st = tel.report()["spans"]["phase"]
        assert st["count"] == 1
        assert st["total_s"] >= 0.0
        assert st["min_s"] <= st["max_s"]

    def test_nesting_builds_slash_paths(self, tel):
        with tel.span("outer"):
            with tel.span("inner"):
                pass
            with tel.span("inner"):
                pass
        spans = tel.report()["spans"]
        assert spans["outer"]["count"] == 1
        assert spans["outer/inner"]["count"] == 2
        assert "inner" not in spans

    def test_span_emits_event(self, tel):
        with tel.span("a"):
            pass
        kinds = [r["event"] for r in tel.sink.records]
        assert "span" in kinds
        rec = [r for r in tel.sink.records if r["event"] == "span"][0]
        assert rec["span"] == "a"
        assert rec["duration_s"] >= 0.0

    def test_exception_still_closes_span(self, tel):
        with pytest.raises(RuntimeError):
            with tel.span("broken"):
                raise RuntimeError("boom")
        assert tel.report()["spans"]["broken"]["count"] == 1
        # the stack unwound: a new span is top-level again
        with tel.span("after"):
            pass
        assert "after" in tel.report()["spans"]


class TestCountersGaugesEvents:
    def test_counter_accumulates(self, tel):
        tel.counter("hits")
        tel.counter("hits", 2)
        assert tel.report()["counters"]["hits"] == 3

    def test_gauge_last_wins(self, tel):
        tel.gauge("temp", 1.0)
        tel.gauge("temp", 7.5)
        assert tel.report()["gauges"]["temp"] == 7.5

    def test_event_record_shape(self, tel):
        tel.event("bo.iteration", iteration=3, value=1.5)
        rec = tel.sink.records[-1]
        assert rec["event"] == "bo.iteration"
        assert rec["iteration"] == 3
        assert "ts" in rec

    def test_reset_clears(self, tel):
        tel.counter("c")
        with tel.span("s"):
            pass
        tel.reset()
        rep = tel.report()
        assert rep["counters"] == {} and rep["spans"] == {}


class TestSnapshotDelta:
    def test_report_since_snapshot_is_delta(self, tel):
        tel.counter("n", 5)
        snap = tel.snapshot()
        tel.counter("n", 2)
        tel.counter("fresh")
        rep = tel.report(since=snap)
        assert rep["counters"] == {"n": 2, "fresh": 1}

    def test_unchanged_spans_dropped_from_delta(self, tel):
        with tel.span("old"):
            pass
        snap = tel.snapshot()
        with tel.span("new"):
            pass
        rep = tel.report(since=snap)
        assert "old" not in rep["spans"]
        assert rep["spans"]["new"]["count"] == 1


class TestProfiling:
    def test_profile_top_functions(self):
        t = Telemetry()
        t.enable(profile=True)
        with t.span("work"):
            sum(i * i for i in range(1000))
        rep = t.report()
        t.disable()
        assert "profile" in rep
        assert rep["profile"]["top"]
        row = rep["profile"]["top"][0]
        assert {"function", "ncalls", "tottime_s", "cumtime_s"} <= set(row)


class TestSinks:
    def test_jsonl_sink_writes_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        t = Telemetry()
        t.enable(path)
        assert isinstance(t.sink, JsonlSink)
        t.event("one", x=1)
        t.event("two", y=[1, 2])
        t.disable()
        lines = path.read_text().strip().splitlines()
        kinds = [json.loads(ln)["event"] for ln in lines]
        assert kinds == ["trace.start", "one", "two"]

    def test_null_sink_discards(self):
        s = NullSink()
        s.emit({"event": "x"})
        s.flush()
        s.close()

    def test_memory_sink_clear(self):
        s = MemorySink()
        s.emit({"event": "x"})
        assert len(s.records) == 1
        s.clear()
        assert s.records == []

    def test_jsonl_sink_concurrent_writes_stay_line_atomic(self, tmp_path):
        path = tmp_path / "concurrent.jsonl"
        sink = JsonlSink(path)
        n_threads, n_each = 4, 50

        def worker(tid):
            for i in range(n_each):
                sink.emit({"event": "e", "tid": tid, "i": i, "pad": "x" * 64})

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == n_threads * n_each
        for ln in lines:
            assert json.loads(ln)["event"] == "e"  # no torn/interleaved lines

    def test_jsonl_sink_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "x.jsonl")
        sink.emit({"event": "a"})
        sink.close()
        sink.close()


class TestTraceContext:
    def test_enable_assigns_trace_id(self):
        t = Telemetry()
        t.enable(MemorySink())
        assert t.trace_id and len(t.trace_id) == 32
        t.disable()

    def test_trace_start_event_emitted(self):
        t = Telemetry()
        sink = MemorySink()
        t.enable(sink)
        start = [r for r in sink.records if r["event"] == "trace.start"]
        assert len(start) == 1
        assert start[0]["trace_id"] == t.trace_id
        t.disable()

    def test_nested_spans_link_parent_ids(self, tel):
        with tel.span("outer"):
            with tel.span("inner"):
                pass
        spans = {r["name"]: r for r in tel.sink.records if r["event"] == "span"}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["span_id"] != spans["outer"]["span_id"]

    def test_fresh_enable_rotates_trace_id(self):
        t = Telemetry()
        t.enable(MemorySink())
        first = t.trace_id
        t.disable()
        t.enable(MemorySink())
        assert t.trace_id != first
        t.disable()

    def test_emit_summary_embeds_report(self, tel):
        tel.counter("c", 2)
        tel.emit_summary(method="test")
        rec = [r for r in tel.sink.records if r["event"] == "run.summary"][0]
        assert rec["trace_id"] == tel.trace_id
        assert rec["method"] == "test"
        assert rec["report"]["counters"]["c"] == 2


class TestPercentiles:
    def test_report_includes_p50_p95(self, tel):
        for _ in range(10):
            with tel.span("work"):
                pass
        st = tel.report()["spans"]["work"]
        assert st["min_s"] <= st["p50_s"] <= st["p95_s"] <= st["max_s"]
        assert "sample" not in st

    def test_span_window_is_bounded(self, tel):
        """Span percentiles cover the last DECISION_WINDOW completions —
        the same RollingWindow definition as the serve loop."""
        for _ in range(DECISION_WINDOW * 2):
            with tel.span("hot"):
                pass
        st = tel.report()["spans"]["hot"]
        assert st["count"] == DECISION_WINDOW * 2
        durations = [
            r["duration_s"] for r in tel.sink.records if r["event"] == "span"
        ]
        tail = sorted(durations[-DECISION_WINDOW:])
        assert st["p50_s"] == percentile(tail, 0.50)
        assert st["p95_s"] == percentile(tail, 0.95)
