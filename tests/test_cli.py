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

    def test_output_flag_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "fig4.json"
        assert main(["figure", "4", "--output", str(out_path)]) == 0
        assert out_path.exists()
        from repro.bench import load_results

        data = load_results(out_path)
        assert "algorithm1_jitter" in data

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

    def test_bench_check_missing_baseline_fails(self, capsys, tmp_path):
        rc = main(
            ["bench", "gp_update", "--profile", "smoke",
             "--output-dir", str(tmp_path), "--check", str(tmp_path / "void")]
        )
        assert rc == 1
        assert "no baseline" in capsys.readouterr().err
