"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestInfo:
    def test_info_prints_inventory(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "PaMO" in out and "ltc" in out


class TestOptimize:
    def test_random_method(self, capsys):
        rc = main(
            ["optimize", "--streams", "3", "--servers", "2", "--method", "random"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "true benefit" in out
        assert "stream" in out

    def test_jcab_method(self, capsys):
        assert main(["optimize", "--streams", "3", "--servers", "2",
                     "--method", "jcab"]) == 0

    def test_fact_with_explicit_bandwidths(self, capsys):
        rc = main(
            [
                "optimize", "--streams", "2", "--servers", "2",
                "--bandwidths", "10,30", "--method", "fact",
            ]
        )
        assert rc == 0
        assert "10.0" in capsys.readouterr().out

    def test_weighted_with_custom_weights(self, capsys):
        rc = main(
            [
                "optimize", "--streams", "2", "--servers", "2",
                "--weights", "1,2,0.5,1,1", "--method", "weighted",
            ]
        )
        assert rc == 0

    def test_bandwidth_count_mismatch_errors(self, capsys):
        rc = main(
            ["optimize", "--servers", "3", "--bandwidths", "10,20",
             "--method", "random"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_method_errors(self, capsys):
        rc = main(["optimize", "--method", "skynet"])
        assert rc == 2
        assert "unknown scheduler" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["optimize"], ["chaos"], ["serve", "run"]], ids=["optimize", "chaos", "serve-run"]
)
@pytest.mark.parametrize(
    "flag",
    [["--bandwidths", "10,x"], ["--weights", "1,x,1,1,1"], ["--weights", "1,2"]],
    ids=["bad-bandwidth", "bad-weight", "weight-count"],
)
def test_malformed_list_flag_is_a_clean_error(command, flag, capsys):
    rc = main([*command, "--method", "random", *flag])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag[0]} ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["optimize", "--checkpoint-every", "3"], ("--checkpoint-every", "--checkpoint")),
        (["chaos", "--faults", "crash:1@0.5", "--n-faults", "4"], ("--n-faults", "--faults")),
        (["chaos", "--faults", "crash:1@0.5", "--horizon", "3"], ("--horizon", "--faults")),
        (
            ["chaos", "--faults", "crash:1@0.5", "--n-faults", "4", "--horizon", "3"],
            ("--n-faults", "--horizon", "--faults"),
        ),
    ],
    ids=["checkpoint-every", "n-faults", "horizon", "both-random-plan-flags"],
)
def test_ignored_flag_is_refused(argv, named, tmp_path, capsys, monkeypatch):
    """A flag the command would silently ignore exits 2 naming it and the
    flag that makes it moot, before any work (nothing is written)."""
    monkeypatch.chdir(tmp_path)
    rc = main([*argv, "--method", "random", "--streams", "2", "--servers", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert all(flag in err for flag in named)
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


class TestTelemetry:
    def test_pamo_alias_emits_iteration_records(self, capsys, tmp_path):
        """`repro pamo --telemetry out.jsonl` writes per-BO-iteration JSONL."""
        import json

        path = tmp_path / "run.jsonl"
        rc = main(
            ["pamo", "--streams", "2", "--servers", "2",
             "--telemetry", str(path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry events written to" in out

        records = [
            json.loads(line) for line in path.read_text().strip().splitlines()
        ]
        assert records, "telemetry log is empty"
        iters = [r for r in records if r["event"] == "bo.iteration"]
        assert iters, "no bo.iteration records emitted"
        for i, rec in enumerate(iters, start=1):
            assert rec["iteration"] == i
            assert rec["batch_size"] >= 1
            assert isinstance(rec["batch_benefit"], float)
            assert isinstance(rec["incumbent_benefit"], float)
            assert rec["t_iteration_s"] > 0
            assert "counters" in rec
        done = [r for r in records if r["event"] == "optimize.done"]
        assert len(done) == 1
        assert done[0]["method"] == "PaMO"
        assert done[0]["outcome"]["decision"]["method"] == "PaMO"

    def test_profile_flag_prints_top_functions(self, capsys):
        rc = main(
            ["optimize", "--streams", "2", "--servers", "2",
             "--method", "random", "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "top functions" in out

    def test_telemetry_disabled_after_run(self, tmp_path):
        from repro.obs import telemetry

        main(
            ["optimize", "--streams", "2", "--servers", "2", "--method",
             "random", "--telemetry", str(tmp_path / "t.jsonl")]
        )
        assert not telemetry.enabled


#: The paper's figures ``repro figure`` regenerates.
FIGURE_IDS = ["2", "3", "4", "6", "7", "8", "9", "10a", "10b"]


class TestFigure:
    def test_fig4(self, capsys):
        assert main(["figure", "4"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm 1 jitter" in out

    def test_fig3_quick(self, capsys):
        assert main(["figure", "3", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front size" in out

    def test_fig9_quick(self, capsys):
        assert main(["figure", "9", "--quick"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figure", "99"]) == 2

    @pytest.mark.parametrize("fig", FIGURE_IDS)
    def test_every_figure_runs_quick(self, capsys, fig):
        assert main(["figure", fig, "--quick"]) == 0
        assert capsys.readouterr().out

    def test_info_and_help_list_the_table_ids(self, capsys):
        import re

        from repro.cli import _FIGURE_TABLE

        assert list(_FIGURE_TABLE) == FIGURE_IDS
        assert main(["info"]) == 0
        line = next(
            ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("figures: ")
        )
        assert line.removeprefix("figures: ").split(", ") == FIGURE_IDS
        with pytest.raises(SystemExit):
            main(["figure", "--help"])
        listed = re.search(r"^  id +(\S+)$", capsys.readouterr().out, re.MULTILINE)
        assert listed.group(1).split("|") == FIGURE_IDS

    def test_output_flag_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.json"
        assert main(["figure", "4", "--output", str(out_path)]) == 0
        assert out_path.exists()
        from repro.bench import load_results

        data = load_results(out_path)
        assert "algorithm1_jitter" in data

    def test_failing_figure_still_closes_telemetry(self, monkeypatch, tmp_path):
        """A figure that raises must not leave telemetry enabled or the
        log without its ``run.summary`` record."""
        import json

        import repro.bench
        from repro.obs import telemetry

        def boom():
            with telemetry.span("fig4.partial"):
                raise RuntimeError("figure failed")

        monkeypatch.setattr(repro.bench, "fig4_jitter", boom)
        path = tmp_path / "fig4.jsonl"
        with pytest.raises(RuntimeError, match="figure failed"):
            main(["figure", "4", "--telemetry", str(path)])
        assert not telemetry.enabled
        records = [json.loads(line) for line in path.read_text().splitlines()]
        summaries = [r for r in records if r["event"] == "run.summary"]
        assert len(summaries) == 1
        assert summaries[0]["figure"] == "4"
        assert "fig4.partial" in summaries[0]["report"]["spans"]

    def test_telemetry_summary_embedded_in_output(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.json"
        tel_path = tmp_path / "fig4.jsonl"
        rc = main(
            ["figure", "4", "--output", str(out_path),
             "--telemetry", str(tel_path)]
        )
        assert rc == 0
        from repro.bench import load_results

        data = load_results(out_path)
        assert "algorithm1_jitter" in data  # figure keys stay top-level
        assert "_telemetry" in data
        assert "spans" in data["_telemetry"]
        assert tel_path.exists()


class TestBench:
    def test_bench_writes_records_and_table(self, capsys, tmp_path):
        rc = main(
            ["bench", "gp_update", "assignment_cache", "--profile", "smoke",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gp_update" in out and "iters/s" in out
        assert (tmp_path / "BENCH_gp_update.json").exists()
        assert (tmp_path / "BENCH_assignment_cache.json").exists()

    def test_bench_unknown_name_errors(self, capsys, tmp_path):
        rc = main(["bench", "warp_drive", "--output-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bench_check_gate(self, capsys, tmp_path):
        base_dir = tmp_path / "base"
        rc = main(
            ["bench", "assignment_cache", "--profile", "smoke",
             "--output-dir", str(base_dir)]
        )
        assert rc == 0
        rc = main(
            ["bench", "assignment_cache", "--profile", "smoke",
             "--output-dir", str(tmp_path), "--check", str(base_dir)]
        )
        assert rc == 0
        assert "match the baseline counters" in capsys.readouterr().out
        # a baseline recording different work fails the gate
        from repro.bench import load_results, save_results

        record = load_results(base_dir / "BENCH_assignment_cache.json")
        record["counters"]["sched.assign_cache_hits"] += 1
        save_results(record, base_dir / "BENCH_assignment_cache.json")
        rc = main(
            ["bench", "assignment_cache", "--profile", "smoke",
             "--output-dir", str(tmp_path), "--check", str(base_dir)]
        )
        assert rc == 1
        assert "FAIL assignment_cache: sched.assign_cache_hits" in capsys.readouterr().err

    def test_bench_default_output_keeps_committed_records(
        self, capsys, tmp_path, monkeypatch
    ):
        # a run from the repository root must not overwrite the
        # committed BENCH_*.json records there
        monkeypatch.chdir(tmp_path)
        sentinel = tmp_path / "BENCH_bo_hot_path.json"
        sentinel.write_text('{"sentinel": true}')
        rc = main(["bench", "bo_hot_path", "--profile", "smoke"])
        assert rc == 0
        assert sentinel.read_text() == '{"sentinel": true}'
        assert (tmp_path / ".bench_build" / "BENCH_bo_hot_path.json").exists()

    def test_bench_check_missing_baseline_fails(self, capsys, tmp_path):
        rc = main(
            ["bench", "gp_update", "--profile", "smoke",
             "--output-dir", str(tmp_path), "--check", str(tmp_path / "void")]
        )
        assert rc == 1
        assert "no baseline" in capsys.readouterr().err
