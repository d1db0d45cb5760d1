"""Tests for the run report / compare analysis layer and its CLI."""

import json

import pytest

from repro.cli import main
from repro.obs.report import (
    WALL_TIME_SLACK_S,
    compare_runs,
    parse_threshold,
    render_markdown,
    render_text,
    summarize_events,
    summarize_file,
    to_json,
)

TRACE = "f" * 32
ROOT = "a" * 16


def _events(*, wall=1.0, benefit=0.8, n_iter=3, trace=TRACE):
    recs = [{"event": "trace.start", "ts": 100.0, "pid": 1, "trace_id": trace}]
    for i in range(1, n_iter + 1):
        recs.append(
            {
                "event": "bo.iteration",
                "ts": 100.0 + 0.1 * i,
                "pid": 1,
                "iteration": i,
                "batch_benefit": benefit * i / n_iter - 0.05,
                "incumbent_benefit": benefit * i / n_iter,
                "acquisition_value": 0.5 / i,
                "t_iteration_s": 0.1,
                "counters": {"bo.iterations": i},
            }
        )
        recs.append(
            {
                "event": "pref.diagnostics",
                "ts": 100.0 + 0.1 * i,
                "pid": 1,
                "iteration": i,
                "n_comparisons": 3 * i,
                "n_items": 10,
                "kendall_tau": 0.8,
            }
        )
    recs.append(
        {
            "event": "gp.diagnostics",
            "ts": 100.4,
            "pid": 1,
            "phase": "update",
            "iteration": n_iter,
            "objectives": {
                "acc": {
                    "noise": 1e-3,
                    "lengthscales": [0.3, 0.3],
                    "outputscale": 1.0,
                    "log_marginal_likelihood": -5.0,
                    "holdout_rmse": 0.01,
                }
            },
        }
    )
    recs.append(
        {
            "event": "span",
            "ts": 100.0 + wall,
            "pid": 1,
            "span": "cli.optimize",
            "name": "cli.optimize",
            "duration_s": wall,
            "start_ts": 100.0,
            "trace_id": trace,
            "span_id": ROOT,
            "parent_id": None,
            "tid": 1,
        }
    )
    recs.append(
        {
            "event": "optimize.done",
            "ts": 100.0 + wall,
            "pid": 1,
            "method": "PaMO",
            "seed": 0,
            "outcome": {
                "converged": True,
                "n_dm_queries": 9,
                "decision": {"benefit": benefit},
            },
        }
    )
    recs.append(
        {
            "event": "run.summary",
            "ts": 100.0 + wall,
            "pid": 1,
            "trace_id": trace,
            "report": {
                "counters": {"pamo.observed_decisions": 12},
                "gauges": {"pref.kendall_tau": 0.8},
                "spans": {
                    "cli.optimize": {
                        "count": 1,
                        "total_s": wall,
                        "min_s": wall,
                        "max_s": wall,
                        "p50_s": wall,
                        "p95_s": wall,
                    }
                },
            },
        }
    )
    return recs


def _write_log(path, **kw):
    path.write_text("".join(json.dumps(r) + "\n" for r in _events(**kw)))
    return path


class TestSummarize:
    def test_core_fields(self):
        s = summarize_events(_events())
        assert s.trace_id == TRACE
        assert s.method == "PaMO" and s.seed == 0
        assert s.n_iterations == 3
        assert s.converged is True
        assert s.final_benefit == pytest.approx(0.8)
        assert s.wall_time_s == pytest.approx(1.0)
        assert s.counters["pamo.observed_decisions"] == 12
        assert s.roots and s.roots[0].trace_id == TRACE
        assert s.orphan_parents == []

    def test_span_fallback_without_run_summary(self):
        events = [e for e in _events() if e["event"] != "run.summary"]
        s = summarize_events(events)
        assert s.spans["cli.optimize"]["count"] == 1
        assert s.spans["cli.optimize"]["p95_s"] == pytest.approx(1.0)
        # counters fall back to the last bo.iteration's cumulative dict
        assert s.counters == {"bo.iterations": 3}

    def test_span_fallback_uses_interpolated_percentiles(self):
        """Without a ``run.summary`` the span percentiles come from the
        raw span events through ``obs.metrics.percentile`` — the linear
        interpolation every other surface uses, not nearest rank."""
        from repro.obs.metrics import percentile

        durations = [2.0, 0.0, 10.0, 1.0]
        events = [
            {"event": "trace.start", "ts": 100.0, "pid": 1, "trace_id": TRACE}
        ] + [
            {
                "event": "span", "ts": 101.0 + i, "pid": 1, "span": "work",
                "name": "work", "duration_s": d, "start_ts": 100.0 + i,
                "trace_id": TRACE, "span_id": f"{i:016x}", "parent_id": None,
            }
            for i, d in enumerate(durations)
        ]
        st = summarize_events(events).spans["work"]
        ordered = sorted(durations)
        assert st["count"] == 4
        assert st["p50_s"] == percentile(ordered, 0.50) == 1.5
        assert st["p95_s"] == percentile(ordered, 0.95) == pytest.approx(8.8)

    def test_to_json_is_serializable(self):
        d = to_json(summarize_events(_events()))
        json.dumps(d)
        assert d["trace_id"] == TRACE
        assert len(d["iterations"]) == 3
        assert d["pref_diagnostics"][0]["kendall_tau"] == 0.8

    def test_render_text_sections(self):
        text = render_text(summarize_events(_events()))
        for needle in (
            TRACE,
            "span tree",
            "convergence",
            "diagnostics per iteration",
            "outcome GPs",
            "top counters",
        ):
            assert needle in text

    def test_render_markdown_tables(self):
        md = render_markdown(summarize_events(_events()))
        assert "| field | value |" in md
        assert "## Span tree" in md
        assert "## Diagnostics per iteration" in md


class TestThreshold:
    def test_percent(self):
        assert parse_threshold("10%") == pytest.approx(0.10)

    def test_fraction(self):
        assert parse_threshold("0.25") == pytest.approx(0.25)

    def test_junk_raises(self):
        with pytest.raises(ValueError):
            parse_threshold("fast")

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            parse_threshold("-5%")


class TestCompare:
    def test_identical_runs_pass(self):
        s = summarize_events(_events())
        result = compare_runs(s, s, threshold=0.10)
        assert not result.regressed

    def test_slower_candidate_regresses(self):
        base = summarize_events(_events(wall=1.0))
        cand = summarize_events(_events(wall=2.0))
        result = compare_runs(base, cand, threshold=0.10)
        assert result.regressed
        assert [m.name for m in result.metrics if m.regressed] == ["wall_time_s"]

    def test_slack_absorbs_sub_threshold_noise(self):
        base = summarize_events(_events(wall=1.0))
        cand = summarize_events(_events(wall=1.0 + 0.8 * WALL_TIME_SLACK_S))
        assert not compare_runs(base, cand, threshold=0.10).regressed

    def test_lower_benefit_regresses(self):
        base = summarize_events(_events(benefit=0.8))
        cand = summarize_events(_events(benefit=0.6))
        result = compare_runs(base, cand, threshold=0.10)
        assert any(
            m.name == "final_benefit" and m.regressed for m in result.metrics
        )

    def test_more_iterations_regress(self):
        base = summarize_events(_events(n_iter=4))
        cand = summarize_events(_events(n_iter=8))
        result = compare_runs(base, cand, threshold=0.10)
        assert any(
            m.name == "bo_iterations" and m.regressed for m in result.metrics
        )

    def test_faster_higher_benefit_passes(self):
        base = summarize_events(_events(wall=2.0, benefit=0.5))
        cand = summarize_events(_events(wall=1.0, benefit=0.9))
        assert not compare_runs(base, cand, threshold=0.10).regressed


class TestReportCLI:
    def test_text_report(self, capsys, tmp_path):
        log = _write_log(tmp_path / "run.jsonl")
        assert main(["report", str(log)]) == 0
        out = capsys.readouterr().out
        assert TRACE in out and "convergence" in out

    def test_json_report(self, capsys, tmp_path):
        log = _write_log(tmp_path / "run.jsonl")
        assert main(["report", str(log), "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["n_iterations"] == 3

    def test_missing_file_errors(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_log_errors(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2


class TestCompareCLI:
    def test_identical_logs_exit_zero(self, capsys, tmp_path):
        a = _write_log(tmp_path / "a.jsonl")
        b = _write_log(tmp_path / "b.jsonl")
        assert main(["compare", str(a), str(b)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_slowed_candidate_exits_nonzero(self, capsys, tmp_path):
        a = _write_log(tmp_path / "a.jsonl", wall=1.0)
        b = _write_log(tmp_path / "b.jsonl", wall=3.0)
        assert main(["compare", str(a), str(b)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_custom_threshold_loosens_gate(self, capsys, tmp_path):
        a = _write_log(tmp_path / "a.jsonl", wall=1.0)
        b = _write_log(tmp_path / "b.jsonl", wall=3.0)
        assert main(["compare", str(a), str(b), "--threshold", "300%"]) == 0

    def test_bad_threshold_errors(self, capsys, tmp_path):
        a = _write_log(tmp_path / "a.jsonl")
        assert main(["compare", str(a), str(a), "--threshold", "soon"]) == 2

    def test_missing_candidate_errors(self, capsys, tmp_path):
        a = _write_log(tmp_path / "a.jsonl")
        assert main(["compare", str(a), str(tmp_path / "nope.jsonl")]) == 2


class TestTraceCLI:
    def test_export_default_path(self, capsys, tmp_path):
        log = _write_log(tmp_path / "run.jsonl")
        assert main(["trace", str(log)]) == 0
        out_path = tmp_path / "run.jsonl.trace.json"
        assert out_path.exists()
        doc = json.loads(out_path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_explicit_output(self, capsys, tmp_path):
        log = _write_log(tmp_path / "run.jsonl")
        out = tmp_path / "t.json"
        assert main(["trace", str(log), "-o", str(out)]) == 0
        json.loads(out.read_text())

    def test_empty_log_errors(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 2


class TestEndToEnd:
    def test_pamo_run_report_compare_cycle(self, capsys, tmp_path):
        """Acceptance: seeded run → report carries diagnostics + trace
        root; compare of a run against itself passes."""
        log = tmp_path / "run.jsonl"
        rc = main(
            ["pamo", "--streams", "2", "--servers", "2", "--seed", "1",
             "--telemetry", str(log)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry: trace" in out
        assert f"repro report {log}" in out

        s = summarize_file(log)
        assert s.trace_id and len(s.trace_id) == 32
        assert s.n_iterations >= 1
        assert s.pref_diagnostics and s.gp_diagnostics
        assert s.roots and s.roots[0].trace_id == s.trace_id
        assert s.orphan_parents == []
        assert "pamo.optimize" in {n.name for n in s.roots[0].walk()}

        assert main(["compare", str(log), str(log)]) == 0
