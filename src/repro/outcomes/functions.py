"""Closed-form outcome functions (Eq. 2–5) over decision vectors.

The five objectives, in the library-wide canonical order
``[ltc, acc, net, com, eng]``:

* **latency** (s): f_ltc = 1/M Σ (θ_lcom(r_i) + θ_bit(r_i)/B_{q_i})  — Eq. 5
* **accuracy** (mAP): f_acc = 1/M Σ θ_acc(r_i) ε_acc(s_i)            — Eq. 2
* **network** (Mbps): f_net = Σ θ_net(r_i) ε_net(s_i)                — Eq. 3
* **computation** (TFLOP/s): f_com = Σ θ_com(r_i) ε_com(s_i)         — Eq. 3
* **energy** (W): f_eng = Σ (γ θ_bit(r_i) ε_bit(s_i) + θ_eng(r_i) ε_eng(s_i)) — Eq. 4

θ-terms come from the device profile and encoder model; ε-terms are
linear in the sampling rate.  γ = 0.5e-5 J/bit follows the paper
(which takes it from JCAB [34]).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils import check_array_1d, check_positive
from repro.video.encoder import EncoderModel
from repro.video.profiles import DeviceProfile, JETSON_NX_PROFILE

#: Canonical objective order used across the entire library.
OBJECTIVES = ("ltc", "acc", "net", "com", "eng")

#: Transmission energy per bit (J); γ in Eq. 4, value from the paper.
GAMMA_J_PER_BIT = 0.5e-5


def default_accuracy_fn(
    resolution: np.ndarray, fps: np.ndarray, *, native_fps: float = 30.0
) -> np.ndarray:
    """Analytic mAP surface matching the simulated detector's behaviour.

    Saturating in resolution (small objects appear as width grows) and
    increasing-concave in sampling rate (held detections go stale
    between processed frames):

        acc(r, s) = 0.88 · (1 − e^{−r/620}) · (0.55 + 0.45 · (s/30)^{0.6})

    Calibrated against :func:`repro.outcomes.profiler.profile_grid`
    output so its range reproduces Fig. 2's ~0.2–0.8 mAP span.
    """
    r = np.asarray(resolution, dtype=float)
    s = np.clip(np.asarray(fps, dtype=float), 0.0, native_fps)
    res_term = 1.0 - np.exp(-r / 620.0)
    rate_term = 0.55 + 0.45 * (s / native_fps) ** 0.6
    return 0.88 * res_term * rate_term


class OutcomeFunctions:
    """Evaluate all five outcome functions for a scheduling decision.

    Parameters
    ----------
    profile:
        Device profile supplying θ_lcom, θ_com(=FLOPs), θ_eng.
    encoder:
        Encoder model supplying θ_bit / θ_net.
    accuracy_fn:
        ``f(resolutions, fps) -> mAP array``; default is
        :func:`default_accuracy_fn`.
    gamma:
        Transmission energy per bit (J).
    """

    def __init__(
        self,
        profile: DeviceProfile = JETSON_NX_PROFILE,
        encoder: EncoderModel | None = None,
        *,
        accuracy_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        gamma: float = GAMMA_J_PER_BIT,
    ) -> None:
        self.profile = profile
        self.encoder = encoder or EncoderModel()
        self.accuracy_fn = accuracy_fn or default_accuracy_fn
        self.gamma = check_positive("gamma", gamma, strict=False)

    # -- per-objective -----------------------------------------------------
    def accuracy(self, resolutions, fps) -> float:
        """Eq. 2: mean per-stream mAP."""
        r = check_array_1d("resolutions", resolutions, min_len=1)
        s = check_array_1d("fps", fps, min_len=1)
        return float(np.mean(self.accuracy_fn(r, s)))

    def network_mbps(self, resolutions, fps) -> float:
        """Eq. 3 (network): total uplink bitrate in Mbps."""
        r = check_array_1d("resolutions", resolutions, min_len=1)
        s = check_array_1d("fps", fps, min_len=1)
        bits = np.array(
            [self.encoder.bitrate(ri, si) for ri, si in zip(r, s)]
        )
        return float(np.sum(bits)) / 1e6

    def computation_tflops(self, resolutions, fps) -> float:
        """Eq. 3 (computation): total compute rate in TFLOP/s."""
        r = check_array_1d("resolutions", resolutions, min_len=1)
        s = check_array_1d("fps", fps, min_len=1)
        flops = np.array([self.profile.flops_per_frame(ri) for ri in r])
        return float(np.sum(flops * s))

    def energy_watts(self, resolutions, fps) -> float:
        """Eq. 4: total power = transmission + computation draw."""
        r = check_array_1d("resolutions", resolutions, min_len=1)
        s = check_array_1d("fps", fps, min_len=1)
        tx = np.array(
            [self.gamma * self.encoder.bits_per_frame(ri) * si for ri, si in zip(r, s)]
        )
        comp = np.array(
            [self.profile.energy_per_frame(ri) * si for ri, si in zip(r, s)]
        )
        return float(np.sum(tx + comp))

    def latency(self, resolutions, fps, assignment, bandwidths_mbps) -> float:
        """Eq. 5: mean per-stream e2e latency (compute + transmission)."""
        r = check_array_1d("resolutions", resolutions, min_len=1)
        bw = check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
        if len(assignment) != r.size:
            raise ValueError(
                f"{r.size} streams but {len(assignment)} assignment entries"
            )
        lats = []
        for ri, q in zip(r, assignment):
            if q == -1:
                continue
            if not (0 <= q < bw.size):
                raise ValueError(f"assignment {q} out of range for {bw.size} servers")
            lats.append(
                self.profile.processing_time(ri)
                + self.encoder.bits_per_frame(ri) / (bw[q] * 1e6)
            )
        if not lats:
            raise ValueError("all streams dropped; latency undefined")
        return float(np.mean(lats))
