"""Write-ahead log: format, torn tails, specs, service integration."""

import json

import pytest

from repro.obs import telemetry
from repro.serve import (
    SchedulerService,
    ServeEvent,
    WriteAheadLog,
    build_service,
    read_wal,
    service_spec,
)
from repro.serve.wal import WAL_VERSION


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


def _spec(**kw):
    base = dict(n_streams=4, bandwidths_mbps=[15.0, 20.0], seed=7)
    base.update(kw)
    return service_spec(**base)


def _events():
    return [
        ServeEvent(time=0.5, kind="stream_join", target=100, value=1.1),
        ServeEvent(time=1.5, kind="stream_leave", target=0),
        ServeEvent(time=2.5, kind="bandwidth_drift", target=1, value=0.9),
    ]


class TestFileFormat:
    def test_create_writes_meta_first(self, tmp_path):
        p = tmp_path / "serve.wal"
        with WriteAheadLog.create(p, _spec()):
            pass
        first = json.loads(p.read_text().splitlines()[0])
        assert first["t"] == "meta"
        assert first["version"] == WAL_VERSION
        assert first["spec"]["n_streams"] == 4

    def test_round_trip_events_and_epochs(self, tmp_path):
        p = tmp_path / "serve.wal"
        evs = _events()
        with WriteAheadLog.create(p, _spec()) as wal:
            for i, e in enumerate(evs, start=1):
                wal.append_event(i, e)
            wal.append_epoch(epoch=0, mode="normal", full=True, sig="aa" * 8)
            wal.append_epoch(epoch=1, mode="brownout", full=False, sig="bb" * 8)
        contents = read_wal(p)
        assert contents.spec["seed"] == 7
        assert [s for s, _ in contents.events] == [1, 2, 3]
        assert [e.to_dict() for _, e in contents.events] == [
            e.to_dict() for e in evs
        ]
        assert contents.epochs[0] == ("normal", True, "aa" * 8)
        assert contents.epochs[1] == ("brownout", False, "bb" * 8)
        assert contents.last_seq == 3
        assert contents.torn_lines == 0

    def test_open_appends(self, tmp_path):
        p = tmp_path / "serve.wal"
        evs = _events()
        with WriteAheadLog.create(p, _spec()) as wal:
            wal.append_event(1, evs[0])
        with WriteAheadLog.open(p) as wal:
            wal.append_event(2, evs[1])
        assert read_wal(p).last_seq == 2

    def test_torn_tail_is_dropped(self, tmp_path):
        p = tmp_path / "serve.wal"
        with WriteAheadLog.create(p, _spec()) as wal:
            for i, e in enumerate(_events(), start=1):
                wal.append_event(i, e)
        raw = p.read_bytes()
        p.write_bytes(raw[:-7])  # tear the last record mid-json
        contents = read_wal(p)
        assert [s for s, _ in contents.events] == [1, 2]
        assert contents.torn_lines == 1

    def test_seq_gap_truncates_suffix(self, tmp_path):
        p = tmp_path / "serve.wal"
        evs = _events()
        with WriteAheadLog.create(p, _spec()) as wal:
            wal.append_event(1, evs[0])
            wal.append_event(3, evs[1])  # gap: 2 is missing
            wal.append_event(4, evs[2])
        contents = read_wal(p)
        assert [s for s, _ in contents.events] == [1]

    def test_missing_or_bad_meta_raises(self, tmp_path):
        missing = tmp_path / "nope.wal"
        with pytest.raises(FileNotFoundError):
            read_wal(missing)
        bad = tmp_path / "bad.wal"
        bad.write_text('{"t": "ev", "seq": 1}\n')
        with pytest.raises(ValueError, match="meta"):
            read_wal(bad)

    def test_version_mismatch_raises(self, tmp_path):
        p = tmp_path / "serve.wal"
        p.write_text(json.dumps({"t": "meta", "version": 99, "spec": {}}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_wal(p)

    def test_sync_counter(self, tmp_path):
        telemetry.enable()
        p = tmp_path / "serve.wal"
        with WriteAheadLog.create(p, _spec()) as wal:
            wal.append_event(1, _events()[0])
            wal.sync()
            wal.sync()  # nothing unsynced: no-op, still counted once
        counters = telemetry.report()["counters"]
        assert counters.get("wal.syncs", 0) >= 1

    def test_batched_fsync_every_n(self, tmp_path):
        p = tmp_path / "serve.wal"
        wal = WriteAheadLog.create(p, _spec(), sync_every=2)
        try:
            wal.append_event(1, _events()[0])
            assert wal._unsynced == 1
            wal.append_event(2, _events()[1])
            assert wal._unsynced == 0  # hit the batch size -> fsynced
        finally:
            wal.close()

    def test_fsync_only_what_was_written(self, tmp_path, monkeypatch):
        from repro.serve import wal as wal_mod

        fsyncs = []
        real = wal_mod.os.fsync
        monkeypatch.setattr(wal_mod.os, "fsync", lambda fd: fsyncs.append(fd) or real(fd))
        p = tmp_path / "serve.wal"
        wal = WriteAheadLog.create(p, _spec())
        assert len(fsyncs) == 1  # the meta record
        wal.sync()
        assert len(fsyncs) == 1  # nothing written since
        wal.append_event(1, _events()[0])
        wal.sync()
        assert len(fsyncs) == 2
        wal.close()  # after a sync: nothing left to make durable
        assert len(fsyncs) == 2
        # an opened journal may hold another handle's unsynced lines:
        # its first sync fsyncs even with nothing appended
        resumed = WriteAheadLog.open(p)
        resumed.sync()
        assert len(fsyncs) == 3
        resumed.sync()
        resumed.close()
        assert len(fsyncs) == 3
        assert [seq for seq, _ in read_wal(p).events] == [1]


class TestServiceSpec:
    def test_spec_is_json_safe(self):
        spec = _spec(
            method="pcs",
            weights=[0.4, 0.3, 0.1, 0.1, 0.1],
            epoch_s=0.5,
            reoptimize_every=4,
            admission={"default_priority": 1},
            breaker={"failure_threshold": 2},
            slo=["decision_p95_s < 0.5"],
            remediation={"brownout_severity": "unhealthy"},
        )
        clone = json.loads(json.dumps(spec))
        assert clone == spec

    def test_build_service_round_trip(self):
        spec = _spec(
            breaker={"failure_threshold": 2, "cooldown_epochs": 3},
            admission={"default_priority": 2, "max_evictions_per_join": 1},
            remediation={"brownout_severity": "degraded"},
            slo=["decision_p95_s < 0.5"],
        )
        service = build_service(spec)
        assert isinstance(service, SchedulerService)
        assert service.breaker.failure_threshold == 2
        assert service.breaker.cooldown_epochs == 3
        assert service.admission.default_priority == 2
        assert service.remediation.brownout_severity == "degraded"
        assert service.monitor is not None

    def test_build_service_minimal(self):
        service = build_service(_spec())
        assert service.breaker is None
        assert service.remediation is None
        assert not service.started


class TestServiceIntegration:
    def test_submit_journals_before_queue(self, tmp_path):
        p = tmp_path / "serve.wal"
        spec = _spec()
        service = build_service(spec)
        with WriteAheadLog.create(p, spec) as wal:
            service.attach_wal(wal)
            assert service.submit(_events()) == 3
        contents = read_wal(p)
        assert contents.last_seq == 3
        assert len(service.queue) == 3
        assert service.wal_seq == 3

    def test_run_journals_epoch_records(self, tmp_path):
        p = tmp_path / "serve.wal"
        spec = _spec()
        service = build_service(spec)
        with WriteAheadLog.create(p, spec) as wal:
            service.attach_wal(wal)
            service.submit(_events())
            service.start()
            decisions = service.run()
        contents = read_wal(p)
        sigs = {d.epoch: d.sig_hash() for d in service.decisions}
        assert {d.epoch for d in decisions} <= set(sigs)
        for epoch, (mode, _full, sig) in contents.epochs.items():
            assert sigs[epoch] == sig
            assert mode == "normal"
        assert set(sigs) == set(contents.epochs)

    def test_checkpoint_excludes_wal_handle(self, tmp_path):
        import pickle

        p = tmp_path / "serve.wal"
        spec = _spec()
        service = build_service(spec)
        with WriteAheadLog.create(p, spec) as wal:
            service.attach_wal(wal)
            service.submit(_events())
            clone = pickle.loads(pickle.dumps(service))
        assert clone.wal is None
        assert clone.wal_seq == service.wal_seq
