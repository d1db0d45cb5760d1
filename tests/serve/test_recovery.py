"""Crash recovery: checkpoint + WAL replay is exactly-once, bit-identical.

The in-process tests drive :func:`repro.serve.wal.recover_service`
directly; the subprocess tests prove the operational story end to end —
``repro serve run --wal --checkpoint`` SIGKILLed mid-flight recovers
bit-identically via ``repro serve recover``, and SIGTERM drains
gracefully with exit code 0.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import telemetry
from repro.serve import (
    ServeEvent,
    WriteAheadLog,
    build_service,
    recover_service,
    service_spec,
)

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


def _spec():
    return service_spec(n_streams=5, bandwidths_mbps=[15.0, 20.0, 10.0], seed=3)


def _events():
    evs = []
    for i in range(8):
        evs.append(
            ServeEvent(time=0.5 + i, kind="stream_join", target=100 + i, value=1.0)
        )
        if i % 2:
            evs.append(ServeEvent(time=0.7 + i, kind="stream_leave", target=i // 2))
    evs.append(ServeEvent(time=4.2, kind="bandwidth_drift", target=1, value=0.8))
    evs.append(ServeEvent(time=6.2, kind="server_down", target=2))
    evs.append(ServeEvent(time=8.2, kind="server_up", target=2))
    return evs


def _journaled_run(tmp_path, *, max_epochs=None, checkpoint=None):
    """One serve run writing a WAL; returns (service, wal_path)."""
    wal_path = tmp_path / "serve.wal"
    service = build_service(_spec())
    with WriteAheadLog.create(wal_path, _spec()) as wal:
        service.attach_wal(wal)
        service.submit(_events())
        service.start()
        service.run(max_epochs=max_epochs, checkpoint_path=checkpoint)
    return service, wal_path


def _sigs(service):
    return [(d.epoch, d.sig_hash()) for d in service.decisions]


class TestRecoverService:
    def test_fresh_rebuild_is_bit_identical(self, tmp_path):
        golden, wal_path = _journaled_run(tmp_path)
        recovered, info = recover_service(wal_path)
        assert not info.from_checkpoint
        assert info.replayed_events == len(_events())
        recovered.run()
        assert info.verify(recovered) == []
        assert _sigs(recovered) == _sigs(golden)

    def test_checkpoint_plus_suffix_replay(self, tmp_path):
        ckpt = tmp_path / "serve.ckpt"
        golden, _ = _journaled_run(tmp_path / "golden")
        (tmp_path / "crash").mkdir()
        crashed, wal_path = _journaled_run(
            tmp_path / "crash", max_epochs=3, checkpoint=ckpt
        )
        assert len(crashed.decisions) < len(golden.decisions)  # mid-run
        recovered, info = recover_service(wal_path, checkpoint=ckpt)
        assert info.from_checkpoint
        assert info.replayed_events == 0  # every event was pre-checkpoint
        recovered.run()
        assert info.verify(recovered) == []
        assert _sigs(recovered) == _sigs(golden)

    def test_recovery_is_idempotent(self, tmp_path):
        _, wal_path = _journaled_run(tmp_path)
        a, _ = recover_service(wal_path)
        b, _ = recover_service(wal_path)
        a.run()
        b.run()
        assert _sigs(a) == _sigs(b)

    def test_verify_flags_divergence(self, tmp_path):
        _, wal_path = _journaled_run(tmp_path)
        recovered, info = recover_service(wal_path)
        recovered.run()
        epoch = max(info.recorded)
        info.recorded[epoch] = "0" * 16  # corrupt one journaled sig
        mismatches = info.verify(recovered)
        assert len(mismatches) == 1
        assert mismatches[0]["epoch"] == epoch

    def test_torn_tail_still_recovers(self, tmp_path):
        _, wal_path = _journaled_run(tmp_path)
        raw = wal_path.read_bytes()
        wal_path.write_bytes(raw[:-9])  # crash tore the last record
        recovered, info = recover_service(wal_path)
        assert info.torn_lines == 1
        recovered.run()
        assert info.verify(recovered) == []


CLI_RUN = [
    "--streams", "5", "--servers", "3", "--seed", "3",
    "--hours", "0.05", "--arrivals-per-hour", "300",
    "--departures-per-hour", "200", "--drifts-per-hour", "40",
    "--flaps-per-hour", "20",
]
ADMISSION = [
    "--priority-map", "0=2,1=2,default=1", "--join-rate", "0.5",
    "--max-queue-depth", "3", "--protect-priority", "2",
]


class TestCliWalOnlyRecovery:
    """``serve recover --wal`` alone rebuilds a CLI run of any flag set.

    The journal's meta record is the only description of the service,
    so every configuration flag must reach it and come back out.
    """

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ADMISSION,
            ["--breaker"],
            ["--weights", "3,1,1,1,1"],
            ["--slo", "impossible: cache_hit_ratio > 2"],
            ["--brownout-slo", "overload: decision_p95_s < 1e-9 ! degraded"],
            ["--metrics-port", "0"],
            ["--method", "random"],
            ["--reoptimize-every", "4"],
            ["--events"],
        ],
        ids=lambda flags: flags[0].lstrip("-") if flags else "default",
    )
    def test_recovers_bit_identically(self, tmp_path, capsys, flags):
        if flags == ["--events"]:
            events = tmp_path / "events.json"
            assert main(["serve", "loadgen", *CLI_RUN, "-o", str(events)]) == 0
            flags = ["--events", str(events)]
        wal = tmp_path / "serve.wal"
        assert main(["serve", "run", *CLI_RUN, *flags, "--wal", str(wal)]) == 0
        capsys.readouterr()
        assert main(["serve", "recover", "--wal", str(wal)]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_resolved_snapshot_meta_spec_still_recovers(self, tmp_path, capsys):
        """Journals written before the CLI built its service from the spec
        store the admission snapshot with a resolved ``join_burst`` and
        ``max_evictions_per_join``, every remediation field and each
        SLO rule in its normalized ``name: spec`` form."""
        wal = tmp_path / "serve.wal"
        rc = main(
            [
                "serve", "run", *CLI_RUN, *ADMISSION, "--breaker",
                "--slo", "impossible: cache_hit_ratio > 2",
                "--brownout-slo", "overload: benefit_drop_ratio < 0.05 ! degraded",
                "--wal", str(wal),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shed" in out and "brownout epochs" in out

        def recover_with(**parts):
            meta, *records = wal.read_text().splitlines()
            meta = json.loads(meta)
            meta["spec"].update(parts)
            wal.write_text("\n".join([json.dumps(meta), *records]) + "\n")
            return main(["serve", "recover", "--wal", str(wal)])

        resolved = dict(
            admission={
                "priority_map": {"0": 2, "1": 2},
                "default_priority": 1,
                "join_rate_per_epoch": 0.5,
                "join_burst": 1.0,
                "max_queue_depth": 3,
                "protect_priority": 2,
                "max_evictions_per_join": 4,
            },
            breaker={
                "failure_threshold": 3,
                "cooldown_epochs": 8,
                "probe_successes": 1,
                "deadline_s": None,
            },
            slo=[
                "impossible: cache_hit_ratio > 2",
                "overload: benefit_drop_ratio < 0.05",
            ],
            remediation={
                "brownout_severity": "degraded",
                "shed_severity": None,
                "checkpoint_severity": None,
            },
        )
        assert recover_with(**resolved) == 0
        assert "bit-identical" in capsys.readouterr().out
        # the meta record really drives the rebuild: another admission
        # configuration diverges from the journaled decisions
        assert recover_with(admission=None) == 1
        assert "diverged" in capsys.readouterr().err


def _cli(*args):
    return [
        sys.executable,
        "-m",
        "repro",
        *args,
    ]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


RUN_FLAGS = [
    "--streams", "5",
    "--servers", "3",
    "--seed", "11",
    "--hours", "0.2",
    "--arrivals-per-hour", "400",
    "--departures-per-hour", "200",
    "--epoch", "2.0",
]


class TestCrashRecoveryCli:
    def test_sigkill_then_recover_bit_identical(self, tmp_path):
        wal = tmp_path / "serve.wal"
        ckpt = tmp_path / "serve.ckpt"
        proc = subprocess.Popen(
            _cli(
                "serve", "run", *RUN_FLAGS,
                "--wal", str(wal),
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "10",
                "--pace", "0.01",
            ),
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=str(tmp_path),
        )
        # Let it journal some epochs, then pull the plug.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if wal.exists() and wal.stat().st_size > 4096:
                break
            if proc.poll() is not None:
                out = proc.stdout.read().decode()
                pytest.fail(f"serve run exited early:\n{out}")
            time.sleep(0.05)
        proc.kill()  # SIGKILL: no handlers, no final sync
        proc.wait(timeout=30)
        assert wal.exists()

        result = subprocess.run(
            _cli(
                "serve", "recover",
                "--wal", str(wal),
                *(["--checkpoint", str(ckpt)] if ckpt.exists() else []),
            ),
            env=_env(),
            capture_output=True,
            text=True,
            timeout=120,
            cwd=str(tmp_path),
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "bit-identical" in result.stdout

    def test_sigterm_drains_gracefully(self, tmp_path):
        wal = tmp_path / "serve.wal"
        ckpt = tmp_path / "serve.ckpt"
        proc = subprocess.Popen(
            _cli(
                "serve", "run", *RUN_FLAGS,
                "--wal", str(wal),
                "--checkpoint", str(ckpt),
                "--checkpoint-every", "10",
                "--pace", "0.05",
            ),
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            cwd=str(tmp_path),
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if wal.exists() and wal.stat().st_size > 1024:
                break
            if proc.poll() is not None:
                out = proc.stdout.read().decode()
                pytest.fail(f"serve run exited early:\n{out}")
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out.decode()
        # Drain left a final checkpoint behind: resume-able, not a crash.
        assert ckpt.exists()
