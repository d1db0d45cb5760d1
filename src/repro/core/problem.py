"""The EVA scheduling problem of §3.

``EVAProblem`` bundles everything a scheduler needs: the M streams
(with per-stream content texture), the N servers with their uplink
bandwidths, the discrete configuration knobs (C_r resolutions × C_f
frame rates), and the outcome functions.  Evaluating a configuration
runs the zero-jitter heuristic (Algorithm 1) to obtain the server
assignment q, then computes the five-objective outcome vector — either
analytically (Eq. 2–5, fast path used inside optimization loops) or by
actually simulating the decision on the discrete-event testbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.obs.diagnostics import emit_schedule_diagnostics
from repro.obs.telemetry import telemetry
from repro.outcomes.functions import OutcomeFunctions
from repro.sched.assignment import resolve_assignment
from repro.sched.grouping import _EPS, InfeasibleScheduleError, group_streams
from repro.sched.streams import PeriodicStream, split_high_rate_streams
from repro.sim.runner import simulate_schedule
from repro.utils import as_generator, check_array_1d
from repro.utils.rng import RngLike
from repro.video.encoder import EncoderModel
from repro.video.profiles import DeviceProfile, JETSON_NX_PROFILE


@dataclass(frozen=True)
class ConfigSpace:
    """Discrete knobs of §1: C_r resolutions × C_f frame sampling rates.

    Default knob sets span the ranges profiled in Fig. 2.  Frame-rate
    knobs are divisors/multiples chosen so harmonic groupings exist
    (1/T ratios are integers for many pairs), which is what makes
    Algorithm 1 effective.
    """

    resolutions: tuple[float, ...] = (300.0, 600.0, 900.0, 1200.0, 1600.0, 2000.0)
    fps_values: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 15.0, 30.0)

    def __post_init__(self) -> None:
        if len(self.resolutions) < 1 or len(self.fps_values) < 1:
            raise ValueError("config space must have at least one knob per axis")
        if any(r <= 0 for r in self.resolutions) or any(s <= 0 for s in self.fps_values):
            raise ValueError("knob values must be positive")

    def bounds(self) -> np.ndarray:
        """(2, 2) array of [(r_lo, r_hi), (s_lo, s_hi)]."""
        return np.array(
            [
                [min(self.resolutions), max(self.resolutions)],
                [min(self.fps_values), max(self.fps_values)],
            ]
        )

    def snap(self, resolution: float, fps: float) -> tuple[float, float]:
        """Nearest knob pair to a continuous (r, s) proposal."""
        r = min(self.resolutions, key=lambda v: abs(v - resolution))
        s = min(self.fps_values, key=lambda v: abs(v - fps))
        return r, s

    def sample(self, m: int, rng: RngLike = None) -> tuple[np.ndarray, np.ndarray]:
        """Random knob configuration for ``m`` streams."""
        gen = as_generator(rng)
        r = gen.choice(self.resolutions, size=m)
        s = gen.choice(self.fps_values, size=m)
        return np.asarray(r, dtype=float), np.asarray(s, dtype=float)

    def all_configs(self) -> np.ndarray:
        """All (r, s) knob pairs, shape (C_r·C_f, 2)."""
        grid = [(r, s) for r in self.resolutions for s in self.fps_values]
        return np.array(grid, dtype=float)


class EVAProblem:
    """Concrete problem instance: M streams on N servers.

    Parameters
    ----------
    n_streams:
        Number of video sources M′.
    bandwidths_mbps:
        Uplink bandwidth per edge server (defines N).
    config_space:
        Discrete decision knobs.
    textures:
        Per-stream content texture multipliers (default 1.0).
    profile, encoder, outcomes:
        Substrate models; ``outcomes`` defaults to the Eq. 2–5 closed
        forms over ``profile``/``encoder``.
    """

    def __init__(
        self,
        n_streams: int,
        bandwidths_mbps: Sequence[float],
        *,
        config_space: ConfigSpace | None = None,
        textures: Sequence[float] | None = None,
        profile: DeviceProfile = JETSON_NX_PROFILE,
        encoder: EncoderModel | None = None,
        outcomes: OutcomeFunctions | None = None,
    ) -> None:
        if n_streams < 1:
            raise ValueError(f"n_streams must be >= 1, got {n_streams}")
        self.n_streams = int(n_streams)
        self.bandwidths_mbps = check_array_1d(
            "bandwidths_mbps", bandwidths_mbps, min_len=1
        )
        self.config_space = config_space or ConfigSpace()
        if textures is None:
            textures = [1.0] * self.n_streams
        if len(textures) != self.n_streams:
            raise ValueError(
                f"textures must have length {self.n_streams}, got {len(textures)}"
            )
        self.textures = np.asarray(textures, dtype=float)
        self.profile = profile
        self.encoder = encoder or EncoderModel()
        self.outcomes = outcomes or OutcomeFunctions(
            profile=self.profile, encoder=self.encoder
        )
        # Feasibility is queried repeatedly on the same knob decisions
        # (candidate pools, rejection sampling); the answer is a pure
        # function of the decision, so memoize it.
        self._feasible_cache: dict[bytes, bool] = {}

    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return self.bandwidths_mbps.size

    def _check_decision(self, resolutions, fps) -> tuple[np.ndarray, np.ndarray]:
        r = check_array_1d("resolutions", resolutions, min_len=1)
        s = check_array_1d("fps", fps, min_len=1)
        if r.size != self.n_streams or s.size != self.n_streams:
            raise ValueError(
                f"decision must cover {self.n_streams} streams, "
                f"got {r.size} resolutions / {s.size} rates"
            )
        return r, s

    def make_streams(self, resolutions, fps) -> list[PeriodicStream]:
        """Build (and split) the periodic stream set T for a decision."""
        r, s = self._check_decision(resolutions, fps)
        streams = [
            PeriodicStream(
                stream_id=i,
                fps=float(s[i]),
                resolution=float(r[i]),
                processing_time=self.profile.processing_time(r[i]),
                bits_per_frame=self.encoder.bits_per_frame(
                    r[i], texture=self.textures[i]
                ),
            )
            for i in range(self.n_streams)
        ]
        return split_high_rate_streams(streams)

    def schedule(
        self, resolutions, fps, *, strict: bool = False
    ) -> tuple[list[int], list[PeriodicStream]]:
        """Algorithm 1 end to end: grouping + Hungarian assignment.

        Returns (assignment aligned to the *split* stream list, split
        streams).  With ``strict=False`` (default) infeasible decisions
        fall back to best-effort placement rather than raising, since
        optimization loops must be able to evaluate bad candidates.
        """
        streams = self.make_streams(resolutions, fps)
        grouping = group_streams(streams, self.n_servers, strict=strict)
        assignment = resolve_assignment(grouping, self.bandwidths_mbps, streams)
        if telemetry.enabled:
            emit_schedule_diagnostics(streams, assignment)
        return assignment, streams

    def is_feasible(self, resolutions, fps) -> bool:
        """True iff Algorithm 1 finds a Const2-satisfying grouping.

        A decision that fails the Theorem-2 pre-check
        (:meth:`_exceeds_const1`) is infeasible without building its
        streams or running Algorithm 1; the verdict is the same.
        """
        r, s = self._check_decision(resolutions, fps)
        key = np.column_stack([r, s]).tobytes()
        cached = self._feasible_cache.get(key)
        if cached is not None:
            return cached
        if self._exceeds_const1(r, s):
            result = False
        else:
            try:
                self.schedule(r, s, strict=True)
                result = True
            except InfeasibleScheduleError:
                result = False
        if len(self._feasible_cache) < 100_000:
            self._feasible_cache[key] = result
        return result

    def _exceeds_const1(self, r: np.ndarray, s: np.ndarray) -> bool:
        """Theorem-2 pre-check: is Σ p_i·s_i beyond what strict Algorithm 1 packs?

        Theorem 2 (Const2 ⇒ Const1) says a Const2 grouping keeps the
        total utilisation Σ p_i·s_i within N.  Algorithm 1 accepts
        groups with ``sched.grouping._EPS`` of slack, so the bound a
        strict grouping can reach is N·(1 + _EPS·s_max), s_max the
        largest frame rate:

        * a group of two or more members passed ``first_fit``, so
          Σp ≤ p_min + _EPS; every member's period is at least p_min,
          so its utilisation Σ p/T ≤ Σp / p_min ≤ 1 + _EPS / p_min;
        * a group's first member is placed unchecked, but splitting
          (``split_count``) leaves p ≤ T + 1e-12, so p/T ≤ 1 + 1e-12/T;
        * splitting only lengthens periods, so every T ≥ 1/s_max, and
          each group's utilisation is at most 1 + _EPS·s_max.

        Splitting keeps a stream's total utilisation p·s, so the N
        groups of a strict grouping hold Σ p_i·s_i ≤ N·(1 + _EPS·s_max).
        The float sums here and in ``first_fit`` round by less than
        (M + Σ p·s)·2⁻⁵² relative, which the bound widens by twice over.
        A decision above it makes ``group_streams(strict=True)`` raise.
        """
        load = 0.0
        for ri, si in zip(r, s):
            load += self.profile.processing_time(ri) * si
        bound = self.n_servers * (1.0 + _EPS * float(np.max(s)))
        rounding = 4.0 * (r.size + load) * np.finfo(float).eps
        return bool(load > bound * (1.0 + rounding))

    # ------------------------------------------------------------------
    def evaluate(self, resolutions, fps) -> np.ndarray:
        """Analytic outcome vector [ltc, acc, net, com, eng] (Eq. 2–5).

        Latency uses the assignment Algorithm 1 produces for this
        decision; per-parent aggregation treats split sub-streams as
        their parent stream (resolution determines cost; the split only
        affects scheduling).
        """
        r, s = self._check_decision(resolutions, fps)
        assignment, streams = self.schedule(r, s)
        # latency per *parent* stream: compute + transmission on its server(s)
        per_parent_lat: dict[int, list[float]] = {}
        for st, q in zip(streams, assignment):
            lat = st.processing_time + st.bits_per_frame / (
                self.bandwidths_mbps[q] * 1e6
            )
            per_parent_lat.setdefault(st.parent_id, []).append(lat)
        ltc = float(np.mean([np.mean(v) for v in per_parent_lat.values()]))
        acc = self.outcomes.accuracy(r, s)
        net = self.outcomes.network_mbps(r, s)
        com = self.outcomes.computation_tflops(r, s)
        eng = self.outcomes.energy_watts(r, s)
        return np.array([ltc, acc, net, com, eng])

    def evaluate_measured(
        self,
        resolutions,
        fps,
        *,
        horizon: float = 5.0,
        rng: RngLike = None,
    ) -> np.ndarray:
        """Outcome vector measured on the discrete-event testbed.

        Slower but authoritative: latency includes any queueing the
        schedule causes; bandwidth/energy come from the event-level
        accounting.  Accuracy still comes from the outcome model (the
        simulator does not rerun the detector).
        """
        r, s = self._check_decision(resolutions, fps)
        assignment, streams = self.schedule(r, s)
        report = simulate_schedule(
            [st.resolution for st in streams],
            [st.fps for st in streams],
            assignment,
            self.bandwidths_mbps,
            horizon=horizon,
            profile=self.profile,
            encoder=self.encoder,
        )
        acc = self.outcomes.accuracy(r, s)
        return np.array(
            [
                report.mean_latency,
                acc,
                report.total_bandwidth_mbps,
                report.computation_tflops,
                report.total_power_watts,
            ]
        )

    def evaluate_decision(
        self,
        resolutions,
        fps,
        assignment: Sequence[int],
        *,
        measured: bool = False,
        horizon: float = 5.0,
    ) -> np.ndarray:
        """Outcome vector for an *explicit* parent-level assignment.

        Used to evaluate baseline schedulers (JCAB, FACT) that produce
        their own server mapping without stream splitting or start-time
        staggering.  With ``measured=True`` the decision runs on the
        discrete-event testbed, so contention/jitter the assignment
        causes shows up in the latency (this is how the paper's real
        testbed treats baselines); analytically (default) latency is the
        idealized Eq. 5 value.
        """
        r, s = self._check_decision(resolutions, fps)
        if len(assignment) != self.n_streams:
            raise ValueError(
                f"assignment must cover {self.n_streams} streams, got {len(assignment)}"
            )
        acc = self.outcomes.accuracy(r, s)
        if measured:
            report = simulate_schedule(
                r,
                s,
                list(assignment),
                self.bandwidths_mbps,
                horizon=horizon,
                profile=self.profile,
                encoder=self.encoder,
                textures=self.textures,
                stagger=False,
            )
            return np.array(
                [
                    report.mean_latency,
                    acc,
                    report.total_bandwidth_mbps,
                    report.computation_tflops,
                    report.total_power_watts,
                ]
            )
        ltc = self.outcomes.latency(r, s, list(assignment), self.bandwidths_mbps)
        return np.array(
            [
                ltc,
                acc,
                self.outcomes.network_mbps(r, s),
                self.outcomes.computation_tflops(r, s),
                self.outcomes.energy_watts(r, s),
            ]
        )

    # ------------------------------------------------------------------
    # Flat configuration-vector codec for BO (x ∈ R^{2M}: r_1, s_1, ...).
    def encode(self, resolutions, fps) -> np.ndarray:
        """Pack a decision into the flat vector (r_1, s_1, r_2, s_2, …)."""
        r, s = self._check_decision(resolutions, fps)
        return np.column_stack([r, s]).reshape(-1)

    def decode(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Unpack a flat configuration vector into (resolutions, fps)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != 2 * self.n_streams:
            raise ValueError(
                f"config vector must have {2 * self.n_streams} entries, got {x.size}"
            )
        pairs = x.reshape(self.n_streams, 2)
        return pairs[:, 0].copy(), pairs[:, 1].copy()

    def sample_decision(self, rng: RngLike = None) -> tuple[np.ndarray, np.ndarray]:
        """Random knob decision for all streams."""
        return self.config_space.sample(self.n_streams, rng)
