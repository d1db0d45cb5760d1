"""Tests for trace reconstruction and Chrome trace export."""

import json

import pytest

from repro.obs import Telemetry
from repro.obs.trace import (
    build_span_forest,
    load_events,
    orphan_parent_ids,
    to_chrome_trace,
    trace_ids,
    write_chrome_trace,
)


@pytest.fixture
def log(tmp_path):
    return tmp_path / "run.jsonl"


def _record_simple_run(path):
    t = Telemetry()
    t.enable(path)
    with t.span("root"):
        with t.span("child"):
            pass
        with t.span("child"):
            pass
        t.event("bo.iteration", iteration=1, incumbent_benefit=0.5)
    t.emit_summary()
    t.disable()
    return t


class TestLoadEvents:
    def test_parses_jsonl(self, log):
        _record_simple_run(log)
        events = load_events(log)
        kinds = {e["event"] for e in events}
        assert {"trace.start", "span", "bo.iteration", "run.summary"} <= kinds

    def test_skips_blank_and_torn_lines(self, log):
        log.write_text('{"event": "a", "ts": 1.0}\n\n{"event": "b", "ts"')
        events = load_events(log)
        assert [e["event"] for e in events] == ["a"]


class TestSpanForest:
    def test_single_process_tree(self, log):
        _record_simple_run(log)
        events = load_events(log)
        roots = build_span_forest(events)
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert root.parent_id is None
        assert [c.name for c in root.children] == ["child", "child"]
        assert orphan_parent_ids(events) == set()

    def test_walk_visits_all(self, log):
        _record_simple_run(log)
        roots = build_span_forest(load_events(log))
        names = [n.name for n in roots[0].walk()]
        assert names == ["root", "child", "child"]

    def test_root_carries_trace_id(self, log):
        t = _record_simple_run(log)
        events = load_events(log)
        roots = build_span_forest(events)
        assert roots[0].trace_id == t.trace_id
        assert trace_ids(events) == [t.trace_id]


class TestChromeExport:
    def test_round_trips_json_loads(self, log, tmp_path):
        _record_simple_run(log)
        out = tmp_path / "trace.json"
        write_chrome_trace(load_events(log), out)
        doc = json.loads(out.read_text())
        assert "traceEvents" in doc

    def test_span_events_are_complete_phases(self, log):
        _record_simple_run(log)
        doc = to_chrome_trace(load_events(log))
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 3  # root + 2 children
        for e in xs:
            assert e["ts"] >= 0
            assert e["dur"] >= 0
            assert "span_id" in e["args"]

    def test_instant_events_carry_kind(self, log):
        _record_simple_run(log)
        doc = to_chrome_trace(load_events(log))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert "bo.iteration" in names

    def test_process_metadata_present(self, log):
        _record_simple_run(log)
        doc = to_chrome_trace(load_events(log))
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert metas and metas[0]["name"] == "process_name"
