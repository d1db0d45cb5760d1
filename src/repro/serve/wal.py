"""Write-ahead event journal and crash recovery for the serve loop.

Periodic checkpoints alone lose everything since the last pickle: a
SIGKILL between checkpoints drops queued events and the decisions made
from them.  The WAL closes that window with the classic database
recipe, adapted to the serve loop's determinism contract:

* every submitted :class:`~repro.serve.events.ServeEvent` is appended
  (with a monotone sequence number) *before* it enters the queue —
  write-ahead, so anything the service ever saw is on disk;
* every epoch decision appends a fingerprint record (epoch, operating
  mode, full-solve flag, and the decision's
  :meth:`~repro.serve.service.ServeDecision.sig_hash`) — the evidence
  recovery checks itself against;
* appends are buffered and fsynced in batches (``sync_every``), which
  is what keeps the journal under the <2% epoch-cost budget; a crash
  can lose at most the unsynced tail, and the torn-tail-tolerant
  reader simply stops there.

Recovery (:func:`recover_service`) = load the last checkpoint if one
exists (else rebuild the service from the WAL's meta record), replay
the event suffix with ``seq`` greater than the checkpoint's high-water
mark, and pin each journaled epoch's operating mode so the replay
makes the *recorded* decisions even where the original transition was
triggered by wall-clock latency.  :meth:`RecoveryInfo.verify` then
proves bit-identity by re-hashing every replayed decision against the
journal.

The journal is JSON-lines with three record types::

    {"t": "meta", "version": 1, "spec": {...}}   # line 1: how to rebuild
    {"t": "ev", "seq": 7, "e": {...}}            # one submitted event
    {"t": "ep", "epoch": 3, "mode": "normal", "full": false, "sig": "..."}
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs import telemetry
from repro.serve.events import ServeEvent

__all__ = [
    "WAL_VERSION",
    "WriteAheadLog",
    "WalContents",
    "RecoveryInfo",
    "read_wal",
    "service_spec",
    "build_service",
    "attach_slo",
    "recover_service",
]

WAL_VERSION = 1

#: Default appends between fsyncs.  One epoch typically appends a
#: handful of records, so this syncs every ~50-100 epochs; crash loses
#: at most that tail (recovery replays a correspondingly shorter
#: suffix — correctness never depends on the sync cadence).
DEFAULT_SYNC_EVERY = 256


class WriteAheadLog:
    """Append-only JSONL journal with batched fsync.

    Use :meth:`create` for a fresh run (truncates, writes the meta
    record, syncs) and :meth:`open` to continue an existing journal.
    The handle is transient — checkpoints drop it (like the metrics
    registry) and the CLI re-opens by path.
    """

    def __init__(self, path, fh, *, sync_every: int = DEFAULT_SYNC_EVERY) -> None:
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self.path = Path(path)
        self._fh = fh
        self.sync_every = int(sync_every)
        self._unsynced = 0
        self._pending: list[str] = []
        # False until this handle's first fsync: an opened journal may
        # hold lines another handle wrote and never synced.
        self._fsynced = False
        self.appends = 0
        self.syncs = 0

    @classmethod
    def create(
        cls, path, spec: Mapping[str, Any], *, sync_every: int = DEFAULT_SYNC_EVERY
    ) -> "WriteAheadLog":
        """Start a fresh journal: truncate, write meta, fsync."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", encoding="utf-8")
        wal = cls(path, fh, sync_every=sync_every)
        wal._append({"t": "meta", "version": WAL_VERSION, "spec": dict(spec)})
        wal.sync()
        return wal

    @classmethod
    def open(
        cls, path, *, sync_every: int = DEFAULT_SYNC_EVERY
    ) -> "WriteAheadLog":
        """Append to an existing journal (resumed runs).

        Raises ``OSError``/``ValueError`` unless ``path`` already starts
        with a meta record: appended to anything else, the records would
        form a journal recovery cannot read.
        """
        with open(path, encoding="utf-8") as fh:
            _meta_spec(fh.readline(), path)
        fh = open(path, "a", encoding="utf-8")
        return cls(path, fh, sync_every=sync_every)

    def _append(self, record: dict) -> None:
        self._append_line(json.dumps(record, separators=(",", ":")))

    def _append_line(self, line: str) -> None:
        # Records accumulate in a Python list until the sync boundary —
        # same durability as writing each one (either way nothing is
        # crash-safe before the fsync), one write syscall per batch.
        self._pending.append(line)
        self.appends += 1
        self._unsynced += 1
        if self._unsynced >= self.sync_every:
            self.sync()

    def append_event(self, seq: int, event: ServeEvent) -> None:
        # Formatted by hand rather than json.dumps — this is the
        # per-event hot path and the fields need no escaping (kinds
        # come from a fixed vocabulary, Python float repr is valid
        # JSON for the finite values the event validator admits).
        value = (
            "" if event.value is None else f',"value":{float(event.value)!r}'
        )
        self._append_line(
            f'{{"t":"ev","seq":{int(seq)},"e":{{"time":{float(event.time)!r},'
            f'"kind":"{event.kind}","target":{int(event.target)}{value}}}}}'
        )

    def append_epoch(self, *, epoch: int, mode: str, full: bool, sig: str) -> None:
        self._append_line(
            f'{{"t":"ep","epoch":{int(epoch)},"mode":"{mode}",'
            f'"full":{"true" if full else "false"},"sig":"{sig}"}}'
        )

    def sync(self) -> None:
        """Flush buffered appends and fsync to stable storage.

        A no-op when this handle has fsynced and appended nothing since:
        there is nothing to make durable.
        """
        if self._fh.closed or (self._fsynced and not self._unsynced):
            return
        if self._pending:
            self._fh.write("\n".join(self._pending) + "\n")
            self._pending.clear()
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fsynced = True
        if self._unsynced:
            telemetry.counter("wal.syncs")
            self.syncs += 1
        self._unsynced = 0

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class WalContents:
    """Parsed journal: the meta spec, event suffix, and epoch records."""

    spec: dict[str, Any]
    events: list[tuple[int, ServeEvent]] = field(default_factory=list)
    #: ``epoch -> (mode, full_solve, sig_hash)`` in journal order.
    epochs: dict[int, tuple[str, bool, str]] = field(default_factory=dict)
    #: Lines dropped at the tail (torn write or seq gap), for reporting.
    torn_lines: int = 0

    @property
    def last_seq(self) -> int:
        return self.events[-1][0] if self.events else 0


def _meta_spec(line: str, path) -> dict[str, Any]:
    """The spec in a journal's first ``line``; ValueError if it is none."""
    if not line.strip():
        raise ValueError(f"{path} is empty — not a WAL")
    try:
        meta = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} has no meta record: {exc}") from exc
    if meta.get("t") != "meta":
        raise ValueError(
            f"{path} first record is {meta.get('t')!r}, expected 'meta'"
        )
    version = int(meta.get("version", 0))
    if version != WAL_VERSION:
        raise ValueError(
            f"{path} is WAL version {version}; this build reads {WAL_VERSION}"
        )
    return dict(meta.get("spec", {}))


def read_wal(path) -> WalContents:
    """Parse a journal, tolerating a torn tail.

    A crash mid-append can leave a truncated final line (or, with
    batched fsync, lose the unsynced suffix entirely); parsing stops
    at the first unparseable line.  A gap in event sequence numbers
    also stops the read — everything after a hole is unreplayable,
    since exactly-once replay needs the contiguous prefix.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    out = WalContents(spec=_meta_spec(lines[0] if lines else "", path))
    expected_seq = 1
    for i, line in enumerate(lines[1:], start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            out.torn_lines = len(lines) - i
            break
        kind = rec.get("t")
        if kind == "ev":
            seq = int(rec["seq"])
            if seq != expected_seq:
                out.torn_lines = len(lines) - i
                break
            expected_seq += 1
            out.events.append((seq, ServeEvent.from_dict(rec["e"])))
        elif kind == "ep":
            out.epochs[int(rec["epoch"])] = (
                str(rec.get("mode", "normal")),
                bool(rec.get("full", False)),
                str(rec.get("sig", "")),
            )
        # unknown record kinds are skipped (forward compatibility)
    return out


def service_spec(
    *,
    n_streams: int,
    bandwidths_mbps,
    seed: int = 0,
    method: str = "",
    weights=None,
    epoch_s: float = 1.0,
    reoptimize_every: int = 0,
    admission: Mapping[str, Any] | None = None,
    breaker: Mapping[str, Any] | None = None,
    slo: list[str] | None = None,
    remediation: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The JSON-safe construction recipe stored in the WAL meta record.

    Everything :func:`build_service` needs to build an *identical*
    service: topology, seed, preference weights, scheduler method, the
    hardening configuration (``admission`` as :meth:`~repro.serve.
    admission.AdmissionController.from_spec` reads it, ``breaker`` and
    ``remediation`` as constructor keywords) and the SLO rule strings.
    """
    return {
        "n_streams": int(n_streams),
        "bandwidths_mbps": [float(b) for b in bandwidths_mbps],
        "seed": int(seed),
        "method": str(method or ""),
        "weights": None if weights is None else [float(w) for w in weights],
        "epoch_s": float(epoch_s),
        "reoptimize_every": int(reoptimize_every),
        "admission": None if admission is None else dict(admission),
        "breaker": None if breaker is None else dict(breaker),
        "slo": None if slo is None else [str(s) for s in slo],
        "remediation": None if remediation is None else dict(remediation),
    }


def build_service(spec: Mapping[str, Any]):
    """Build a fresh :class:`SchedulerService` from a WAL meta spec.

    The one construction path of a CLI service: ``repro serve run``
    builds its service with this from the spec it journals, and
    :func:`recover_service` rebuilds it from the journaled spec, so the
    warm-up solve of a WAL-only recovery is bit-identical to the
    original run's.  ``slo`` rules attach through :func:`attach_slo`.
    """
    from repro.baselines.registry import available_schedulers
    from repro.core.problem import EVAProblem
    from repro.serve.admission import AdmissionController
    from repro.serve.engine import approx_preference
    from repro.serve.service import (
        RegistryFactory,
        RemediationPolicy,
        SchedulerService,
    )

    problem = EVAProblem(
        n_streams=int(spec["n_streams"]),
        bandwidths_mbps=[float(b) for b in spec["bandwidths_mbps"]],
    )
    pref = approx_preference(problem, weights=spec.get("weights"))
    method = spec.get("method") or ""
    if method and method.lower() not in available_schedulers():
        raise ValueError(
            f"unknown scheduler {method!r}; "
            f"choose from {list(available_schedulers())}"
        )
    factory = (
        RegistryFactory(method, pref, seed=int(spec.get("seed", 0)))
        if method
        else None
    )
    admission = None
    if spec.get("admission"):
        admission = AdmissionController.from_spec(spec["admission"])
    breaker = None
    if spec.get("breaker"):
        from repro.resilience.breaker import CircuitBreaker

        breaker = CircuitBreaker(**spec["breaker"])
    remediation = None
    if spec.get("remediation"):
        remediation = RemediationPolicy(**spec["remediation"])
    service = SchedulerService(
        problem,
        preference=pref,
        scheduler_factory=factory,
        epoch_s=float(spec.get("epoch_s", 1.0)),
        reoptimize_every=int(spec.get("reoptimize_every", 0)),
        admission=admission,
        breaker=breaker,
        remediation=remediation,
    )
    if spec.get("slo"):
        attach_slo(service, spec["slo"])
    return service


def attach_slo(service, rules: list[str]) -> None:
    """Attach a registry-less health monitor over SLO rule strings."""
    from repro.obs.health import HealthMonitor, SloRule

    service.attach_observability(
        monitor=HealthMonitor([SloRule.parse(rule) for rule in rules])
    )


@dataclass
class RecoveryInfo:
    """What :func:`recover_service` did, and the proof obligations left.

    ``recorded`` maps every journaled epoch to its decision hash; after
    the recovered service drains its queue, :meth:`verify` re-hashes
    the service's decisions against it — an empty mismatch list is the
    bit-identity guarantee.
    """

    wal_path: Path
    from_checkpoint: bool
    start_seq: int
    replayed_events: int
    torn_lines: int
    recorded: dict[int, str] = field(default_factory=dict)

    def verify(self, service) -> list[dict]:
        """Hash-check the service's decisions against the journal.

        Returns one dict per mismatching (or missing) epoch; empty
        means every journaled decision was reproduced bit-identically.
        """
        by_epoch = {d.epoch: d for d in service.decisions}
        mismatches: list[dict] = []
        for epoch, expected in sorted(self.recorded.items()):
            decision = by_epoch.get(epoch)
            actual = None if decision is None else decision.sig_hash()
            if actual != expected:
                mismatches.append(
                    {"epoch": epoch, "expected": expected, "actual": actual}
                )
        telemetry.counter("wal.verified", len(self.recorded) - len(mismatches))
        if mismatches:
            telemetry.counter("wal.mismatches", len(mismatches))
        return mismatches


def recover_service(wal_path, *, checkpoint=None):
    """Rebuild a service from checkpoint + WAL suffix, exactly-once.

    ``checkpoint`` (optional) is a serve checkpoint written by the
    crashed run; events already absorbed by it (``seq <=`` its
    ``wal_seq`` high-water mark) are skipped, the rest are re-submitted
    in order.  Journaled epochs ahead of the resume point get their
    operating mode and full-solve choice pinned, so replay reproduces
    the recorded decisions even where the original transition came
    from wall-clock latency.  Returns ``(service, RecoveryInfo)`` —
    run the service, then :meth:`RecoveryInfo.verify`.
    """
    contents = read_wal(wal_path)
    from_checkpoint = False
    if checkpoint is not None and Path(checkpoint).exists():
        from repro.serve.service import SchedulerService

        service = SchedulerService.resume(checkpoint)
        start_seq = int(service.wal_seq)
        from_checkpoint = True
    else:
        service = build_service(contents.spec)
        start_seq = 0
    suffix = [e for seq, e in contents.events if seq > start_seq]
    service.submit(suffix)  # no WAL attached: recovery writes no journal
    service.wal_seq = max(contents.last_seq, start_seq)
    # Pin recorded epochs ahead of the resume point.  Epoch 0 (warm-up)
    # is always a normal-mode full solve, so it never needs a pin —
    # and on fresh rebuilds it must not get one, since start() runs it
    # before the run loop would consume the pin.
    service._forced_modes = {
        ep: (mode, full)
        for ep, (mode, full, _sig) in contents.epochs.items()
        if ep > service.epoch and ep > 0
    }
    info = RecoveryInfo(
        wal_path=Path(wal_path),
        from_checkpoint=from_checkpoint,
        start_seq=start_seq,
        replayed_events=len(suffix),
        torn_lines=contents.torn_lines,
        recorded={ep: sig for ep, (_m, _f, sig) in contents.epochs.items()},
    )
    telemetry.counter("wal.replayed_events", len(suffix))
    telemetry.event(
        "wal.recovered",
        wal=str(wal_path),
        from_checkpoint=from_checkpoint,
        start_seq=start_seq,
        replayed_events=len(suffix),
        torn_lines=contents.torn_lines,
    )
    return service, info
