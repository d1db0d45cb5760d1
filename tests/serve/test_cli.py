"""CLI serve family: loadgen -> run -> report, gates, trace compat."""

import json

import pytest

from repro.cli import main
from repro.obs import telemetry


LOADGEN = [
    "serve", "loadgen",
    "--streams", "5", "--servers", "3",
    "--hours", "0.05",
    "--arrivals-per-hour", "300",
    "--departures-per-hour", "200",
    "--drifts-per-hour", "40",
    "--flaps-per-hour", "20",
    "--seed", "0",
]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture
def event_log(tmp_path):
    path = tmp_path / "events.json"
    assert main(LOADGEN + ["-o", str(path)]) == 0
    return path


class TestLoadgen:
    def test_writes_replayable_log(self, event_log, capsys):
        from repro.serve import EventLog

        log = EventLog.load(event_log)
        assert len(log) > 5
        assert log.n_streams == 5 and log.n_servers == 3

    def test_unwritable_output_errors(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rc = main(LOADGEN + ["-o", str(blocker / "e.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestServeRun:
    def test_wal_under_a_regular_file_is_a_clean_error(self, event_log, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        before = sorted(tmp_path.iterdir())
        wal = blocker / "serve.wal"
        rc = main(["serve", "run", "--events", str(event_log), "--wal", str(wal)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot journal to --wal {wal}: ")
        assert "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before
        assert blocker.read_text() == "not a directory"

    def test_replay_prints_summary(self, event_log, capsys):
        rc = main(["serve", "run", "--events", str(event_log), "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serve run:" in out
        assert "full solves" in out
        assert "decision latency" in out

    def test_inline_loadgen_when_no_events(self, capsys):
        rc = main(
            [
                "serve", "run", "--streams", "4", "--servers", "3",
                "--hours", "0.02", "--arrivals-per-hour", "300",
                "--departures-per-hour", "200", "--seed", "1",
            ]
        )
        assert rc == 0
        assert "serve run:" in capsys.readouterr().out

    def test_method_flag_uses_registry(self, event_log, capsys):
        rc = main(
            [
                "serve", "run", "--events", str(event_log),
                "--method", "greedy", "--seed", "0",
            ]
        )
        assert rc == 0
        assert "method greedy" in capsys.readouterr().out

    def test_checkpoint_then_resume(self, event_log, tmp_path, capsys):
        ckpt = tmp_path / "serve.ckpt"
        rc = main(
            [
                "serve", "run", "--events", str(event_log),
                "--max-epochs", "2", "--checkpoint", str(ckpt), "--seed", "0",
            ]
        )
        assert rc == 0
        assert ckpt.exists()
        rc = main(["serve", "run", "--resume", str(ckpt)])
        assert rc == 0
        assert "resuming serve run" in capsys.readouterr().out

    def test_resume_missing_checkpoint_errors(self, tmp_path, capsys):
        rc = main(["serve", "run", "--resume", str(tmp_path / "nope.ckpt")])
        assert rc == 2
        assert "cannot resume" in capsys.readouterr().err

    def test_unknown_method_is_a_clean_error(self, capsys):
        rc = main(["serve", "run", "--method", "skynet", "--hours", "0.01"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: unknown scheduler 'skynet'")

    @pytest.mark.parametrize(
        ("command", "flags", "message"),
        [
            ("run", ["--join-rate", "-1"], "--join-rate must be > 0"),
            ("run", ["--epoch", "0"], "--epoch must be > 0"),
            ("run", ["--streams", "0"], "--streams must be >= 1"),
            ("run", ["--breaker", "--breaker-failures", "0"], "--breaker-failures must be >= 1"),
            ("run", ["--diurnal-amplitude", "1.5"], "--diurnal-amplitude must be in [0, 1)"),
            ("run", ["--hours", "0"], "--hours must be > 0"),
            ("run", ["--burst-start", "1", "--burst-multiplier", "0.5"],
             "--burst-multiplier must be >= 1"),
            ("loadgen", ["--hours", "0"], "--hours must be > 0"),
        ],
        ids=["join-rate", "epoch", "streams", "breaker-failures", "diurnal-amplitude",
             "hours", "burst-multiplier", "loadgen-hours"],
    )
    def test_rejected_value_names_its_flag(self, tmp_path, capsys, command, flags, message):
        out = ["-o", str(tmp_path / "events.json")] if command == "loadgen" else []
        rc = main(["serve", command, "--hours", "0.01", *flags, *out])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}, got ")
        assert list(tmp_path.iterdir()) == []

    def test_bandwidth_mismatch_errors(self, capsys):
        rc = main(
            ["serve", "run", "--streams", "3", "--servers", "2",
             "--bandwidths", "10", "--hours", "0.01"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err



_ADMISSION_ON = ("--priority-map", "--join-rate", "--max-queue-depth")
_BREAKER_ON = ("--breaker", "--breaker-deadline")


#: ``(command, flag, value, flags one of which switches its feature on)``
DEPENDENT = [
    ("run", "--breaker-failures", "2", _BREAKER_ON),
    ("run", "--breaker-cooldown", "2", _BREAKER_ON),
    ("run", "--breaker-probes", "2", _BREAKER_ON),
    ("run", "--join-burst", "2", _ADMISSION_ON),
    ("run", "--protect-priority", "1", _ADMISSION_ON),
    ("run", "--checkpoint-every", "2", ("--checkpoint",)),
    ("run", "--telemetry-max-mb", "1", ("--telemetry",)),
    ("run", "--telemetry-backups", "2", ("--telemetry",)),
    ("run", "--metrics-host", "0.0.0.0", ("--metrics-port",)),
    *(
        (command, flag, value, needs)
        for command in ("run", "loadgen")
        for flag, value, needs in [
            ("--burst-duration", "60", ("--burst-start",)),
            ("--burst-multiplier", "4", ("--burst-start",)),
            ("--diurnal-period", "600", ("--diurnal-amplitude",)),
        ]
    ),
]


@pytest.mark.parametrize(
    ("command", "flag", "value", "needs"),
    DEPENDENT,
    ids=[f"{command}{flag}" for command, flag, _, _ in DEPENDENT],
)
def test_flag_without_the_flag_that_enables_it_is_refused(
    tmp_path, monkeypatch, capsys, command, flag, value, needs
):
    """A tuning flag given without any flag that switches its feature on
    would do nothing, so the command exits 2 naming both before running."""
    monkeypatch.chdir(tmp_path)  # where `serve loadgen` writes by default
    wal = ["--wal", str(tmp_path / "serve.wal")] if command == "run" else []
    rc = main(["serve", command, "--hours", "0.01", flag, value, *wal])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {flag} has no effect without ")
    assert all(enabler in err for enabler in needs)
    assert list(tmp_path.iterdir()) == []  # no WAL, checkpoint or event log


#: ``chaos-overload`` CI job's ``serve run`` flags.
CI_OVERLOAD = [
    "--streams", "6", "--servers", "4", "--seed", "0",
    "--hours", "0.5", "--arrivals-per-hour", "250", "--departures-per-hour", "150",
    "--drifts-per-hour", "20", "--flaps-per-hour", "6",
    "--burst-start", "300", "--burst-duration", "300", "--burst-multiplier", "8",
    "--join-rate", "2", "--max-queue-depth", "12",
    "--priority-map", "0=2,1=2,default=1", "--protect-priority", "2",
    "--reoptimize-every", "6",
    "--breaker", "--breaker-deadline", "0.00001", "--breaker-failures", "2",
    "--breaker-cooldown", "10",
    "--brownout-slo", "overload: decision_p95_s < 0.5 for 3 ! degraded",
]


@pytest.mark.parametrize(
    ("flags", "meta"),
    [
        (
            [],
            '{"t":"meta","version":1,"spec":{"n_streams":6,'
            '"bandwidths_mbps":[30.0,20.0,20.0,10.0],"seed":0,"method":"",'
            '"weights":null,"epoch_s":1.0,"reoptimize_every":0,"admission":null,'
            '"breaker":null,"slo":null,"remediation":null}}',
        ),
        (
            CI_OVERLOAD,
            '{"t":"meta","version":1,"spec":{"n_streams":6,'
            '"bandwidths_mbps":[30.0,20.0,20.0,10.0],"seed":0,"method":"",'
            '"weights":null,"epoch_s":1.0,"reoptimize_every":6,"admission":'
            '{"priority_map":{"0":2,"1":2},"default_priority":1,'
            '"join_rate_per_epoch":2.0,"join_burst":null,"max_queue_depth":12,'
            '"protect_priority":2},"breaker":{"failure_threshold":2,'
            '"cooldown_epochs":10,"probe_successes":1,"deadline_s":1e-05},'
            '"slo":["overload: decision_p95_s < 0.5 for 3 ! degraded"],'
            '"remediation":{"brownout_severity":"degraded"}}}',
        ),
    ],
    ids=["flagless", "ci-overload"],
)
def test_journaled_meta_record(tmp_path, capsys, flags, meta):
    """The WAL meta record is the recovery recipe of a run: its bytes,
    key order included, are pinned per flag set."""
    wal = tmp_path / "serve.wal"
    assert main(["serve", "run", *flags, "--max-epochs", "1", "--wal", str(wal)]) == 0
    assert wal.read_text().splitlines()[0] == meta


def _cut_run(event_log, tmp_path, *flags):
    """A checkpointed run stopped after a few epochs; returns the checkpoint."""
    ckpt = tmp_path / "serve.ckpt"
    rc = main(
        [
            "serve", "run", "--events", str(event_log), "--seed", "0",
            "--max-epochs", "5", "--checkpoint", str(ckpt), *flags,
        ]
    )
    assert rc == 0
    return ckpt


class TestResumeKeepsCheckpointConfiguration:
    """A resumed run keeps its checkpoint's configuration."""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--join-rate", "0.5", "--max-queue-depth", "3"],
            ["--priority-map", "0=2,default=1"],
            ["--join-rate", "0.5"],
            ["--max-queue-depth", "0"],
            ["--breaker"],
            ["--breaker-deadline", "0.1"],
            ["--breaker-failures", "0"],
            ["--breaker-cooldown", "5"],
            ["--breaker-probes", "2"],
            ["--brownout-slo", "decision_p95_s < 1"],
            ["--slo", "decision_p95_s < 1"],
        ],
        ids=lambda flags: flags[0].lstrip("-") + ("+" if len(flags) > 2 else ""),
    )
    def test_reconfiguring_flags_are_rejected(
        self, event_log, tmp_path, capsys, flags
    ):
        wal = tmp_path / "serve.wal"
        ckpt = _cut_run(event_log, tmp_path, "--wal", str(wal))
        before = (ckpt.read_bytes(), wal.read_bytes())
        rc = main(
            ["serve", "run", "--resume", str(ckpt), "--wal", str(wal),
             "--checkpoint", str(ckpt), *flags]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flags[0]}")
        assert "--resume" in err
        # nothing ran: checkpoint and journal are untouched, and the
        # journal still recovers bit-identically on its own
        assert (ckpt.read_bytes(), wal.read_bytes()) == before
        assert main(["serve", "recover", "--wal", str(wal)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_plain_resume_appends_a_recoverable_journal(
        self, event_log, tmp_path, capsys
    ):
        wal = tmp_path / "serve.wal"
        ckpt = _cut_run(
            event_log, tmp_path, "--wal", str(wal), "--join-rate", "0.5"
        )
        assert main(["serve", "run", "--resume", str(ckpt), "--wal", str(wal)]) == 0
        assert main(["serve", "recover", "--wal", str(wal)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_resume_reports_the_checkpoints_method(
        self, event_log, tmp_path, capsys
    ):
        ckpt = _cut_run(event_log, tmp_path, "--method", "random")
        capsys.readouterr()
        assert main(["serve", "run", "--resume", str(ckpt)]) == 0
        assert "method random" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "empty", "not-a-wal"])
    def test_resume_needs_the_runs_journal(self, event_log, tmp_path, capsys, kind):
        ckpt = _cut_run(event_log, tmp_path)
        wal = tmp_path / "serve.wal"
        if kind == "empty":
            wal.write_text("")
        elif kind == "not-a-wal":
            wal.write_text('{"t":"ep","epoch":1,"mode":"normal"}\n')
        before = ckpt.read_bytes()
        rc = main(
            ["serve", "run", "--resume", str(ckpt), "--wal", str(wal),
             "--checkpoint", str(ckpt)]
        )
        assert rc == 2
        assert "error: cannot journal to --wal" in capsys.readouterr().err
        assert ckpt.read_bytes() == before  # no epoch ran
        assert wal.exists() == (kind != "missing")

    def test_resume_refuses_another_runs_journal(self, tmp_path, capsys):
        # Checkpoint A is cut from run A; B.wal is a different run's journal
        # with a valid meta record.  Appending A's resumed epochs to it would
        # leave a journal that `serve recover` replays into other decisions.
        a_ckpt, a_wal, b_wal = (tmp_path / n for n in ("A.ckpt", "A.wal", "B.wal"))
        common = ["serve", "run", "--hours", "0.2"]
        assert main(common + ["--seed", "1", "--max-epochs", "5",
                              "--checkpoint", str(a_ckpt), "--wal", str(a_wal)]) == 0
        assert main(common + ["--seed", "2", "--wal", str(b_wal)]) == 0
        capsys.readouterr()
        before = (a_ckpt.read_bytes(), b_wal.read_bytes())
        rc = main(["serve", "run", "--resume", str(a_ckpt), "--wal", str(b_wal)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: cannot journal to --wal {b_wal}: its last event is seq ")
        assert f"repro serve recover --wal {b_wal}" in err
        assert (a_ckpt.read_bytes(), b_wal.read_bytes()) == before
        assert main(["serve", "recover", "--wal", str(b_wal)]) == 0
        assert "bit-identical" in capsys.readouterr().out
        # its own journal still takes the resumed run
        assert main(["serve", "run", "--resume", str(a_ckpt), "--wal", str(a_wal)]) == 0
        assert main(["serve", "recover", "--wal", str(a_wal)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_resume_refuses_a_journal_past_the_checkpoint(
        self, event_log, tmp_path, capsys
    ):
        wal = tmp_path / "serve.wal"
        ckpt = _cut_run(event_log, tmp_path, "--wal", str(wal))
        # a resumed run that journals more churn but writes no checkpoint
        assert main(["serve", "run", "--resume", str(ckpt), "--wal", str(wal),
                     "--events", str(event_log), "--max-epochs", "2"]) == 0
        capsys.readouterr()
        before = wal.read_bytes()
        rc = main(["serve", "run", "--resume", str(ckpt), "--wal", str(wal)])
        assert rc == 2
        assert "but the checkpoint ends at seq" in capsys.readouterr().err
        assert wal.read_bytes() == before

    def test_metrics_port_keeps_the_checkpoints_monitor(
        self, event_log, tmp_path
    ):
        from repro.serve import SchedulerService

        ckpt = _cut_run(
            event_log, tmp_path,
            "--brownout-slo", "overload: benefit_drop_ratio < 0.05",
        )
        after = tmp_path / "after.ckpt"
        rc = main(
            ["serve", "run", "--resume", str(ckpt), "--metrics-port", "0",
             "--checkpoint", str(after)]
        )
        assert rc == 0
        service = SchedulerService.resume(after)
        assert [rule.name for rule in service.monitor.rules] == ["overload"]
        assert service.remediation.brownout_severity == "degraded"

    def test_metrics_port_adds_stock_rules_when_checkpoint_has_none(
        self, event_log, tmp_path
    ):
        from repro.obs import default_rules
        from repro.serve import SchedulerService

        ckpt = _cut_run(event_log, tmp_path)
        assert SchedulerService.resume(ckpt).monitor is None
        after = tmp_path / "after.ckpt"
        rc = main(
            ["serve", "run", "--resume", str(ckpt), "--metrics-port", "0",
             "--checkpoint", str(after)]
        )
        assert rc == 0
        rules = SchedulerService.resume(after).monitor.rules
        assert rules == default_rules()


class TestServeReport:
    @pytest.fixture
    def trace(self, event_log, tmp_path):
        path = tmp_path / "serve.jsonl"
        assert main(
            [
                "serve", "run", "--events", str(event_log),
                "--telemetry", str(path), "--seed", "0",
            ]
        ) == 0
        return path

    def test_report_renders_summary(self, trace, capsys):
        capsys.readouterr()
        assert main(["serve", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "decision latency" in out
        assert "full solves" in out

    def test_json_format(self, trace, capsys):
        capsys.readouterr()
        assert main(["serve", "report", str(trace), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["epochs"] > 0
        assert data["decision_count"] == data["epochs"]
        assert data["full_solves"] >= 1

    def test_p95_gate_passes_with_slack(self, trace, capsys):
        assert main(["serve", "report", str(trace), "--max-p95", "60"]) == 0
        assert "within" in capsys.readouterr().out

    def test_p95_gate_fails_when_over_budget(self, trace, capsys):
        rc = main(["serve", "report", str(trace), "--max-p95", "1e-12"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().err

    def test_empty_log_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["serve", "report", str(empty)])
        assert rc == 2
        assert "no serve events" in capsys.readouterr().err

    def test_generic_report_and_trace_understand_serve_logs(self, trace, capsys):
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "serve.decision" in out
        assert "serve.replans" in out
        assert main(["trace", str(trace)]) == 0
