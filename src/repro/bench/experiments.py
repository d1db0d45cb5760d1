"""One entry point per paper figure (§5, Figures 2–10).

Each function returns plain dict/array data shaped like the paper's
plot series, so benchmarks and examples can both print and check them.
All functions accept size knobs; defaults are scaled to finish in CI
time while preserving the paper's qualitative shapes (the full-size
parameters are noted per function).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines import make_scheduler, pareto_front
from repro.baselines.search import orient_minimize
from repro.bench.harness import (
    FAST_PAMO_KWARGS,
    MethodResult,
    make_problem,
    normalize_against_plus,
    run_method,
)
from repro.core import EVAProblem, make_preference
from repro.core.benefit import benefit_ratio, normalized_benefit
from repro.outcomes import OutcomeSurrogateBank, profile_grid
from repro.outcomes.functions import OBJECTIVES
from repro.outcomes.profiler import profile_configuration, samples_to_arrays
from repro.pref import DecisionMaker, PreferenceLearner
from repro.pref.metrics import pairwise_accuracy, sample_test_pairs
from repro.sched import PeriodicStream, group_streams, resolve_assignment, stagger_offsets
from repro.sim import EdgeCluster, StreamSpec
from repro.utils import as_generator, spawn
from repro.utils.rng import RngLike
from repro.video import default_library

# ---------------------------------------------------------------------------
# Figure 2 — outcome surfaces of two clips
# ---------------------------------------------------------------------------


def fig2_profiling_surfaces(
    *,
    resolutions: Sequence[float] = (300, 600, 900, 1200, 1600, 2000),
    fps_values: Sequence[float] = (1, 5, 10, 15, 20, 25, 30),
    clip_names: Sequence[str] = ("mot16-02-like", "mot16-05-like"),
    n_frames: int = 45,
    rng: RngLike = 0,
) -> dict:
    """Measured (resolution × fps) surfaces per clip (100 Mbps link).

    Returns {clip: {metric: 2-D array (len(res), len(fps))}} for the
    five metrics of Fig. 2.  Paper: full MOT16 clips, denser grids.
    """
    lib = default_library(n_frames=n_frames, rng=rng)
    gens = spawn(rng, len(clip_names))
    out: dict = {"resolutions": list(resolutions), "fps_values": list(fps_values)}
    metrics = ("accuracy", "latency", "network_mbps", "computation_tflops", "power_watts")
    for name, g in zip(clip_names, gens):
        samples = profile_grid(
            lib[name], resolutions, fps_values, bandwidth_mbps=100.0, rng=g
        )
        surfaces = {m: np.empty((len(resolutions), len(fps_values))) for m in metrics}
        k = 0
        for i in range(len(resolutions)):
            for j in range(len(fps_values)):
                s = samples[k]
                k += 1
                for m in metrics:
                    surfaces[m][i, j] = getattr(s, m)
        out[name] = surfaces
    return out


# ---------------------------------------------------------------------------
# Figure 3 — contention latency accumulation + Pareto solutions
# ---------------------------------------------------------------------------


def fig3a_contention(*, horizon: float = 3.0) -> dict:
    """Fig. 3(a): two streams on one overloaded server.

    Video 1 at 5 fps, Video 2 at 10 fps, each frame taking 0.1 s — the
    exact setup of the figure (Video 2's own period equals its
    processing time, so any sharing overloads the node).  Returns the
    per-frame queueing delays showing accumulation.
    """
    specs = [
        StreamSpec(0, fps=5.0, processing_time=0.1, bits_per_frame=1e-3),
        StreamSpec(1, fps=10.0, processing_time=0.1, bits_per_frame=1e-3),
    ]
    rep = EdgeCluster([1e6]).run(specs, [0, 0], horizon)
    return {
        "video1_delays": rep.streams[0].queueing_delays,
        "video2_delays": rep.streams[1].queueing_delays,
        "video1_latencies": rep.streams[0].latencies,
        "video2_latencies": rep.streams[1].latencies,
        "max_jitter": rep.max_jitter,
    }


def fig3b_pareto(*, n_decisions: int = 40, rng: RngLike = 0) -> dict:
    """Fig. 3(b): Pareto-optimal outcome vectors of random decisions.

    Returns the normalized outcome matrix, the Pareto indices, and
    three mutually non-dominating representatives (like the figure's
    Solutions 1–3).
    """
    problem = make_problem(4, 3, rng=rng, fixed_bandwidth=20.0)
    gen = as_generator(rng)
    ys = np.stack(
        [problem.evaluate(*problem.sample_decision(gen)) for _ in range(n_decisions)]
    )
    oriented = orient_minimize(ys)
    front = pareto_front(oriented)
    lo = ys.min(axis=0)
    hi = ys.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    normalized = (ys - lo) / span
    picks = front[:: max(1, len(front) // 3)][:3]
    return {
        "outcomes": ys,
        "normalized": normalized,
        "pareto_indices": front,
        "representatives": picks,
    }


# ---------------------------------------------------------------------------
# Figure 4 — delay jitter: bad co-scheduling vs Algorithm 1
# ---------------------------------------------------------------------------


def fig4_jitter(*, horizon: float = 12.0) -> dict:
    """Fig. 4: jitter from poor grouping vs zero jitter from Algorithm 1.

    Three streams with periods (0.3 s, 0.5 s, 0.6 s).  Naive packing
    puts the non-harmonic pair (1, 2) together (jitter); Algorithm 1
    groups the harmonic pair (1, 3) and isolates stream 2 (zero jitter).
    """
    streams = [
        PeriodicStream(0, fps=1 / 0.3, resolution=960, processing_time=0.12, bits_per_frame=1.0),
        PeriodicStream(1, fps=2.0, resolution=960, processing_time=0.12, bits_per_frame=1.0),
        PeriodicStream(2, fps=1 / 0.6, resolution=960, processing_time=0.12, bits_per_frame=1.0),
    ]

    def run(assignment, stagger_groups: bool) -> float:
        offsets = {}
        if stagger_groups:
            groups: dict[int, list[PeriodicStream]] = {}
            for st, q in zip(streams, assignment):
                groups.setdefault(q, []).append(st)
            for grp in groups.values():
                for st, off in zip(grp, stagger_offsets(grp)):
                    offsets[st.stream_id] = off
        specs = [
            StreamSpec(
                st.stream_id,
                fps=st.fps,
                processing_time=st.processing_time,
                bits_per_frame=1e-3,
                offset=offsets.get(st.stream_id, 0.0),
            )
            for st in streams
        ]
        rep = EdgeCluster([1e6, 1e6]).run(specs, assignment, horizon)
        return rep.max_jitter

    # Naive: first-fit by load puts streams 0 & 1 together (periods 0.3 / 0.5).
    bad_jitter = run([0, 0, 1], stagger_groups=False)
    # Algorithm 1 grouping on the same 2 servers.
    grouping = group_streams(streams, 2)
    assignment = resolve_assignment(grouping, [1e6, 1e6], streams)
    good_jitter = run(assignment, stagger_groups=True)
    return {
        "bad_assignment_jitter": bad_jitter,
        "algorithm1_jitter": good_jitter,
        "algorithm1_assignment": assignment,
    }


# ---------------------------------------------------------------------------
# Figure 6 — benefit across preference functions
# ---------------------------------------------------------------------------


def fig6_preference_sweep(
    *,
    weight_values: Sequence[float] = (0.2, 0.4, 1.6, 3.2),
    objectives: Sequence[str] = OBJECTIVES,
    n_streams: int = 8,
    n_servers: int = 5,
    seeds: Sequence[int] = (0,),
    methods: Sequence[str] = ("JCAB", "FACT", "PaMO", "PaMO+"),
    pamo_kwargs: dict | None = None,
) -> list[dict]:
    """Fig. 6: normalized benefit + per-objective ratio per weighting.

    For each objective o and weight w, set w_o = w (others 1), rebuild
    the true preference, and run all methods.  Paper: 3 repetitions;
    ``seeds`` controls that here.
    """
    records = []
    for obj_idx, obj in enumerate(objectives):
        for w in weight_values:
            weights = np.ones(len(OBJECTIVES))
            weights[obj_idx] = w
            per_seed: dict[str, list[MethodResult]] = {m: [] for m in methods}
            for seed in seeds:
                problem = make_problem(n_streams, n_servers, rng=seed)
                pref = make_preference(problem, weights=weights)
                results = {
                    m: run_method(
                        m,
                        problem,
                        pref,
                        seed=seed,
                        pamo_kwargs=pamo_kwargs,
                        jcab_weights=(weights[1], weights[4]),
                        fact_weights=(weights[0], weights[1]),
                    )
                    for m in methods
                }
                normalize_against_plus(results, pref)
                for m in methods:
                    per_seed[m].append(results[m])
            rec = {
                "objective": obj,
                "weight": w,
                "normalized": {
                    m: float(np.mean([r.normalized for r in per_seed[m]]))
                    for m in methods
                },
                "true_benefit": {
                    m: float(np.mean([r.true_benefit for r in per_seed[m]]))
                    for m in methods
                },
            }
            # Benefit-ratio shades (last seed's PaMO outcome, as in the plot).
            problem = make_problem(n_streams, n_servers, rng=seeds[-1])
            pref = make_preference(problem, weights=weights)
            rec["benefit_ratio"] = {
                m: benefit_ratio(pref, per_seed[m][-1].outcome).tolist()
                for m in methods
            }
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# Figure 7 — scaling with server / video count
# ---------------------------------------------------------------------------


def fig7_scaling(
    *,
    node_counts: Sequence[int] = (5, 6, 7, 8, 9),
    video_counts: Sequence[int] = (7, 8, 9, 10, 11),
    fixed_videos: int = 10,
    fixed_nodes: int = 5,
    seeds: Sequence[int] = (0,),
    methods: Sequence[str] = ("JCAB", "FACT", "PaMO", "PaMO+"),
    pamo_kwargs: dict | None = None,
) -> dict:
    """Fig. 7: normalized benefit vs #servers and vs #videos (w = 1)."""

    def sweep(settings, fixed, vary_nodes: bool):
        rows = []
        for val in settings:
            n_vid = fixed if vary_nodes else val
            n_srv = val if vary_nodes else fixed
            accum = {m: [] for m in methods}
            for seed in seeds:
                problem = make_problem(n_vid, n_srv, rng=seed)
                pref = make_preference(problem)
                results = {
                    m: run_method(m, problem, pref, seed=seed, pamo_kwargs=pamo_kwargs)
                    for m in methods
                }
                normalize_against_plus(results, pref)
                for m in methods:
                    accum[m].append(results[m].normalized)
            rows.append(
                {
                    "setting": val,
                    "normalized": {m: float(np.mean(accum[m])) for m in methods},
                }
            )
        return rows

    return {
        "by_nodes": sweep(node_counts, fixed_videos, vary_nodes=True),
        "by_videos": sweep(video_counts, fixed_nodes, vary_nodes=False),
    }


# ---------------------------------------------------------------------------
# Figure 8 — outcome-model R² vs training-set size
# ---------------------------------------------------------------------------


def fig8_outcome_r2(
    *,
    train_sizes: Sequence[int] = (200, 300, 400, 500, 600),
    n_test: int = 20,
    n_reps: int = 3,
    n_frames: int = 36,
    measurement_noise: float = 0.3,
    rng: RngLike = 0,
) -> dict:
    """Fig. 8: per-objective R² of the GP bank vs training-set size.

    Training samples come from the *real* profiling pipeline (the
    detector runs; mAP is measured), plus relative measurement noise on
    the resource readings (a physical testbed's timers/power meters are
    noisy under thermal/contention variation).  R² is computed against
    noise-free test measurements, so it grows toward 1 as the GP
    averages the noise away — the paper's Fig. 8 shape.  Paper: 10
    repetitions; default here is 3.
    """
    lib = default_library(n_frames=n_frames, rng=rng)
    clip = lib["mot16-09-like"]
    gen = as_generator(rng)
    out = {"train_sizes": list(train_sizes), "r2": {m: [] for m in OBJECTIVES}}
    res_range = (300.0, 2000.0)
    fps_range = (1.0, 30.0)

    def sample_points(n, g):
        r = g.uniform(*res_range, n)
        s = g.uniform(*fps_range, n)
        return np.column_stack([r, s])

    def measure(pts, g, noise):
        samples = [
            profile_configuration(clip, r, s, measurement_noise=noise, rng=g)
            for r, s in pts
        ]
        return samples_to_arrays(samples)

    for size in train_sizes:
        per_rep = {m: [] for m in OBJECTIVES}
        for _ in range(n_reps):
            g = as_generator(int(gen.integers(0, 2**62)))
            x_tr, y_tr = measure(sample_points(size, g), g, measurement_noise)
            x_te, y_te = measure(sample_points(n_test, g), g, 0.0)
            bank = OutcomeSurrogateBank(
                resolution_bounds=res_range, fps_bounds=fps_range
            ).fit(x_tr, y_tr, rng=g)
            r2 = bank.r2_per_objective(x_te, y_te)
            for m in OBJECTIVES:
                per_rep[m].append(r2[m])
        for m in OBJECTIVES:
            out["r2"][m].append(float(np.mean(per_rep[m])))
    return out


# ---------------------------------------------------------------------------
# Figure 9 — preference-model accuracy vs #comparison pairs
# ---------------------------------------------------------------------------


def fig9_preference_accuracy(
    *,
    pair_counts: Sequence[int] = (3, 6, 9, 18, 27),
    n_test_pairs: int = 500,
    n_reps: int = 3,
    n_outcome_space: int = 40,
    rng: RngLike = 0,
    eubo: bool = True,
) -> dict:
    """Fig. 9: pairwise prediction accuracy vs training comparisons.

    ``eubo=False`` ablates the EUBO pair selection with random pairs.
    Paper: 10 repetitions over 500-sample test sets.
    """
    gen = as_generator(rng)
    out = {"pair_counts": list(pair_counts), "accuracy": [], "accuracy_std": []}
    for v in pair_counts:
        accs = []
        for _ in range(n_reps):
            seed = int(gen.integers(0, 2**62))
            g = as_generator(seed)
            problem = make_problem(6, 4, rng=g)
            pref = make_preference(
                problem, weights=g.uniform(0.5, 2.0, len(OBJECTIVES))
            )
            ys = np.stack(
                [
                    problem.evaluate(*problem.sample_decision(g))
                    for _ in range(n_outcome_space)
                ]
            )
            dm = DecisionMaker(pref, rng=g)
            learner = PreferenceLearner(ys, decision_maker=dm, rng=g)
            n_init = min(3, v)
            learner.initialize(n_init)
            if eubo:
                learner.run(v - n_init)
            else:
                for _ in range(v - n_init):
                    i, j = g.choice(len(ys), 2, replace=False)
                    learner._ask(int(i), int(j))
                learner.model.fit(learner._data)
            pairs = sample_test_pairs(ys, n_test_pairs, rng=g)
            accs.append(pairwise_accuracy(learner.utility, pref.value, pairs))
        out["accuracy"].append(float(np.mean(accs)))
        out["accuracy_std"].append(float(np.std(accs)))
    return out


# ---------------------------------------------------------------------------
# Figure 10 — sensitivity: baseline weights & termination threshold
# ---------------------------------------------------------------------------


def fig10a_weight_sensitivity(
    *,
    weight_values: Sequence[float] = (0.05, 0.1, 0.2, 0.5, 0.8, 1.0, 2.0, 5.0),
    configs: Sequence[tuple[int, int]] = ((5, 8), (6, 10)),  # (servers, videos)
    seeds: Sequence[int] = (0,),
    pamo_kwargs: dict | None = None,
) -> list[dict]:
    """Fig. 10(a): JCAB/FACT benefit vs their internal weight knob.

    One weight sweeps while the other stays 1; PaMO and PaMO+ are
    weight-independent (run once per config) and provide the ceiling
    the baselines never reach.
    """
    records = []
    for n_srv, n_vid in configs:
        tag = f"n{n_srv}v{n_vid}"
        for seed in seeds:
            problem = make_problem(n_vid, n_srv, rng=seed)
            pref = make_preference(problem)
            plus = run_method("PaMO+", problem, pref, seed=seed, pamo_kwargs=pamo_kwargs)
            pamo = run_method("PaMO", problem, pref, seed=seed, pamo_kwargs=pamo_kwargs)
            u_max = max(plus.true_benefit, pamo.true_benefit)
            u_min = pref.worst_value
            for w in weight_values:
                jcab = make_scheduler(
                    "jcab", problem, rng=seed, w_acc=1.0, w_eng=w
                ).optimize()
                fact = make_scheduler(
                    "fact", problem, w_ltc=w, w_acc=1.0
                ).optimize()
                records.append(
                    {
                        "config": tag,
                        "weight": w,
                        "seed": seed,
                        "JCAB": float(
                            normalized_benefit(
                                pref.value(jcab.decision.outcome), u_max, u_min
                            )
                        ),
                        "FACT": float(
                            normalized_benefit(
                                pref.value(fact.decision.outcome), u_max, u_min
                            )
                        ),
                        "PaMO": float(
                            normalized_benefit(pamo.true_benefit, u_max, u_min)
                        ),
                        "PaMO+": float(
                            normalized_benefit(plus.true_benefit, u_max, u_min)
                        ),
                    }
                )
    return records


def fig10b_threshold_sensitivity(
    *,
    deltas: Sequence[float] = (0.02, 0.04, 0.06, 0.08, 0.1, 0.2),
    configs: Sequence[tuple[int, int]] = ((5, 8), (6, 10)),
    seeds: Sequence[int] = (0,),
    pamo_kwargs: dict | None = None,
) -> list[dict]:
    """Fig. 10(b): benefit vs termination threshold δ for all methods."""
    records = []
    kw = {**FAST_PAMO_KWARGS, **(pamo_kwargs or {})}
    for n_srv, n_vid in configs:
        tag = f"n{n_srv}v{n_vid}"
        for seed in seeds:
            problem = make_problem(n_vid, n_srv, rng=seed)
            pref = make_preference(problem)
            u_min = pref.worst_value
            # u_max from a reference PaMO+ run at the tightest threshold
            ref = make_scheduler(
                "pamo+", problem, preference=pref, rng=seed,
                **{**kw, "delta": min(deltas)},
            ).optimize()
            u_max = pref.value(ref.decision.outcome)
            for delta in deltas:
                row = {"config": tag, "delta": delta, "seed": seed}
                pamo = make_scheduler(
                    "pamo", problem, preference=pref, rng=seed,
                    **{**kw, "delta": delta},
                ).optimize()
                row["PaMO"] = float(
                    normalized_benefit(
                        pref.value(pamo.decision.outcome), u_max, u_min
                    )
                )
                plus = make_scheduler(
                    "pamo+", problem, preference=pref, rng=seed,
                    **{**kw, "delta": delta},
                ).optimize()
                row["PaMO+"] = float(
                    normalized_benefit(
                        pref.value(plus.decision.outcome), u_max, u_min
                    )
                )
                jcab = make_scheduler(
                    "jcab", problem, rng=seed, tol=delta
                ).optimize()
                row["JCAB"] = float(
                    normalized_benefit(
                        pref.value(jcab.decision.outcome), u_max, u_min
                    )
                )
                fact = make_scheduler("fact", problem, tol=delta).optimize()
                row["FACT"] = float(
                    normalized_benefit(
                        pref.value(fact.decision.outcome), u_max, u_min
                    )
                )
                records.append(row)
    return records
