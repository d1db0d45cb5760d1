"""Checkpoint/resume for optimization runs.

A checkpoint is a pickle of the *whole scheduler object* plus the
in-flight :class:`~repro.bo.loop.BOLoopState`.  Pickling the scheduler
captures everything the continuation needs bit-identically: the
problem instance, the fitted outcome-GP bank and preference learner,
the incumbent, and — crucially — the exact state of the shared
``numpy`` RNG, so a resumed run draws the same candidate pools,
acquisition samples, and profiling noise an uninterrupted run would
have drawn.

Writes are atomic and durable (temp file + fsync + ``os.replace`` +
directory fsync), so a run killed mid-checkpoint leaves the previous
checkpoint intact and a completed save survives power loss — which is
the whole point of checkpointing a crashy run.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import telemetry

#: Bump when the checkpoint payload layout changes (3: the serve
#: service's latency window became a ``RollingWindow``; 4: its window
#: grew into the ``ServeStats`` tally; 5: the tally gained the latency
#: histogram's bucket counts).
CHECKPOINT_VERSION = 5


@dataclass
class CheckpointData:
    """One loaded checkpoint: the scheduler plus its BO-loop state."""

    scheduler: Any
    bo_state: Any
    meta: dict = field(default_factory=dict)

    @property
    def iteration(self) -> int:
        """Last completed BO iteration at checkpoint time."""
        return int(self.meta.get("iteration", 0))


def save_checkpoint(path, *, scheduler, bo_state, **meta) -> Path:
    """Atomically write a checkpoint pickle to ``path``.

    ``meta`` keys (method name, iteration, …) are stored alongside the
    payload and come back on :func:`load_checkpoint`.  Emits a
    ``ckpt.save`` telemetry event and bumps ``ckpt.saves``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "scheduler": scheduler,
        "bo_state": bo_state,
        "meta": dict(meta),
    }
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            # fsync *before* the rename: os.replace is atomic for the
            # name, but without this a crash after the rename could
            # still expose a truncated pickle under the final name.
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        try:
            dir_fd = os.open(str(path.parent), os.O_RDONLY)
        except OSError:
            pass  # platform without directory fds; rename is still atomic
        else:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    telemetry.counter("ckpt.saves")
    telemetry.event("ckpt.save", path=str(path), **{
        k: v for k, v in meta.items() if isinstance(v, (int, float, str, bool))
    })
    return path


def load_checkpoint(path) -> CheckpointData:
    """Load a checkpoint written by :func:`save_checkpoint`.

    A checkpoint naming a class (or slot) this build no longer has was
    written before a refactor of the pickled objects; it raises
    ``ValueError`` instead of surfacing the unpickler's ``AttributeError``.
    """
    path = Path(path)
    with path.open("rb") as fh:
        try:
            payload = pickle.load(fh)
        except (AttributeError, ImportError) as exc:
            raise ValueError(
                f"checkpoint {path} was written by an incompatible build "
                f"({exc}); a serve run can be rebuilt from its WAL alone"
            ) from exc
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path} has version {version}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    telemetry.counter("ckpt.loads")
    return CheckpointData(
        scheduler=payload["scheduler"],
        bo_state=payload["bo_state"],
        meta=dict(payload.get("meta", {})),
    )
