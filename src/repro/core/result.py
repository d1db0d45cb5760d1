"""Decision and optimization result containers.

Both containers encode to JSON-safe dicts (``to_dict``), so result
persistence (:mod:`repro.bench.io`, which reads them back as plain
dicts) and the telemetry event log (:mod:`repro.obs`) share one
serialization format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.serialization import to_jsonable


@dataclass
class ScheduleDecision:
    """A complete scheduling decision plus its evaluated outcome.

    ``assignment``/``split_streams`` describe the Algorithm-1 schedule
    of the (possibly split) stream set; ``outcome`` is the five-vector
    [ltc, acc, net, com, eng]; ``benefit`` is whatever benefit function
    scored it (true preference for PaMO+/baselines, learned ĝ for PaMO).
    """

    resolutions: np.ndarray
    fps: np.ndarray
    assignment: list[int]
    outcome: np.ndarray
    benefit: float
    method: str = ""

    def __post_init__(self) -> None:
        self.resolutions = np.asarray(self.resolutions, dtype=float)
        self.fps = np.asarray(self.fps, dtype=float)
        self.outcome = np.asarray(self.outcome, dtype=float)

    @property
    def n_streams(self) -> int:
        return self.resolutions.size

    def to_dict(self) -> dict:
        """JSON-safe dict (numpy arrays become lists)."""
        return {
            "resolutions": self.resolutions.tolist(),
            "fps": self.fps.tolist(),
            "assignment": [int(q) for q in self.assignment],
            "outcome": self.outcome.tolist(),
            "benefit": float(self.benefit),
            "method": self.method,
        }


@dataclass
class OptimizationOutcome:
    """Full record of one optimizer run."""

    decision: ScheduleDecision
    true_benefit: float | None = None
    n_iterations: int = 0
    converged: bool = False
    history: list[float] = field(default_factory=list)
    n_dm_queries: int = 0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe dict; ``extras`` values pass through the shared encoder."""
        return {
            "decision": self.decision.to_dict(),
            "true_benefit": (
                None if self.true_benefit is None else float(self.true_benefit)
            ),
            "n_iterations": int(self.n_iterations),
            "converged": bool(self.converged),
            "history": [float(z) for z in self.history],
            "n_dm_queries": int(self.n_dm_queries),
            "extras": to_jsonable(self.extras),
        }
