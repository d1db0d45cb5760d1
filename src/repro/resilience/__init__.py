"""Resilience: fault injection, graceful degradation, checkpoint/resume.

Real edge deployments see server crashes, uplink bandwidth collapse,
and camera churn — regimes the paper's zero-jitter theorems assume
away.  This package makes those regimes *testable* and *survivable*:

* :mod:`repro.resilience.faults` — seeded, deterministic fault plans:
  an :class:`~repro.serve.events.EventLog` of the serve loop's topology
  events (server down/up, bandwidth drift, stream leave/join), built
  from compact CLI specs or drawn at random;
* :mod:`repro.resilience.chaos` — :class:`ChaosRunner` replays a plan
  against a scheduler: at every topology change PaMO replans with a
  warm-started BO loop, and the report quantifies benefit/latency
  degradation versus the fault-free run (the ``repro chaos`` CLI);
* :mod:`repro.resilience.checkpoint` — periodic BO-loop state
  serialization so ``repro <scheduler> --resume <ckpt>`` continues a
  crashed run bit-identically;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`
  (closed/open/half-open) guarding the serve loop's full-solve path;
  open = brownout operation until half-open probes pass.
"""

from repro.resilience.breaker import BREAKER_STATES, CircuitBreaker
from repro.resilience.faults import parse_fault_spec
from repro.resilience.checkpoint import (
    CheckpointData,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.chaos import ChaosReport, ChaosRunner, EpochResult

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "parse_fault_spec",
    "CheckpointData",
    "load_checkpoint",
    "save_checkpoint",
    "ChaosReport",
    "ChaosRunner",
    "EpochResult",
]
