"""Ablations of PaMO's design choices (DESIGN.md §5).

Not a paper figure — these benches justify the choices the paper makes
by measuring the alternatives:

* qNEI vs qEI / qUCB / qSR acquisition (§5.1's PaMO variants);
* Algorithm 1's heuristic grouping vs exact branch-and-bound vs
  simulated annealing (§6's ILP/metaheuristic alternatives);
* GP outcome models vs the parametric θ(r)·ε(s) regression of Eq. 2–3.
"""

import math
import time

import numpy as np

from conftest import run_once
from repro.bench.harness import FAST_PAMO_KWARGS, make_problem, run_method
from repro.bench.reporting import format_table
from repro.core import make_preference
from repro.sched import (
    AnnealedScheduler,
    InfeasibleScheduleError,
    PeriodicStream,
    clear_assignment_cache,
    communication_latency,
    exact_grouping,
    group_streams,
    resolve_assignment,
)
from repro.utils import as_generator


def test_ablation_acquisition_functions(benchmark):
    """qNEI should match or beat the other MC acquisitions on true benefit."""

    def run():
        rows = {}
        problem = make_problem(6, 4, rng=0)
        pref = make_preference(problem)
        for name in ("PaMO", "PaMO_qEI", "PaMO_qUCB", "PaMO_qSR"):
            vals = [
                run_method(name, problem, pref, seed=s).true_benefit
                for s in range(2)
            ]
            rows[name] = float(np.mean(vals))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["acquisition", "mean true benefit"],
            sorted(rows.items(), key=lambda kv: -kv[1]),
            title="Ablation: acquisition functions",
        )
    )
    # qNEI within noise of the best variant
    assert rows["PaMO"] >= max(rows.values()) - 0.25


def _random_streams(gen, m):
    return [
        PeriodicStream(
            stream_id=i,
            fps=float(gen.choice([1, 2, 5, 10, 15, 30])),
            resolution=float(gen.choice([300, 600, 900, 1200])),
            processing_time=float(gen.uniform(0.005, 0.05)),
            bits_per_frame=float(gen.uniform(1e4, 5e5)),
        )
        for i in range(m)
    ]


def test_ablation_grouping_solvers(benchmark):
    """Algorithm 1 vs exact B&B vs simulated annealing on 30 instances.

    Expected shape: the exact solver solves a superset of instances but
    its search is exponential in M; Algorithm 1 solves nearly as many at
    microsecond cost with comparable communication latency and is never
    slower; SA solves fewer at far higher cost.
    """

    def run():
        gen = as_generator(0)
        bw = [10.0, 20.0, 30.0]
        n_instances = 30
        instances = [
            _random_streams(gen, int(gen.integers(3, 7)))
            for _ in range(n_instances)
        ]
        stats = {
            m: {"feasible": 0, "time": math.inf, "comm": []}
            for m in ("algorithm1", "exact", "anneal")
        }
        # Each solver runs whole passes from a cold assignment memo;
        # interleaving them per instance would favour whichever runs
        # second (memoized Hungarian solves, warm interpreter caches).
        # Passes alternate and the fastest counts, so a burst of load
        # on the host does not land on one solver only.
        solvers = {
            "algorithm1": lambda s: group_streams(s, len(bw)),
            "exact": lambda s: exact_grouping(s, len(bw), bandwidths_mbps=bw),
        }
        for _ in range(5):
            for name, grouping in solvers.items():
                clear_assignment_cache()
                feasible, comm = 0, []
                t0 = time.perf_counter()
                for streams in instances:
                    try:
                        q = resolve_assignment(grouping(streams), bw, streams)
                        feasible += 1
                        comm.append(communication_latency(streams, q, bw))
                    except InfeasibleScheduleError:
                        pass
                elapsed = time.perf_counter() - t0
                stats[name] = {
                    "feasible": feasible,
                    "time": min(stats[name]["time"], elapsed),
                    "comm": comm,
                }

        t0 = time.perf_counter()
        for k, streams in enumerate(instances):
            res = AnnealedScheduler(rng=k, n_iters=1500).solve(streams, bw)
            if res.feasible:
                stats["anneal"]["feasible"] += 1
                stats["anneal"]["comm"].append(
                    communication_latency(streams, res.assignment, bw)
                )
        stats["anneal"]["time"] = time.perf_counter() - t0
        return n_instances, stats

    n, stats = run_once(benchmark, run)
    rows = [
        [
            m,
            f"{s['feasible']}/{n}",
            np.mean(s["comm"]) if s["comm"] else float("nan"),
            s["time"] * 1e3 / n,
        ]
        for m, s in stats.items()
    ]
    print()
    print(
        format_table(
            ["solver", "feasible", "mean comm lat (s)", "ms/instance"],
            rows,
            title="Ablation: grouping solvers",
        )
    )
    # exact solves everything the heuristic solves
    assert stats["exact"]["feasible"] >= stats["algorithm1"]["feasible"]
    # heuristic is close to exact on feasibility (the paper's bet)
    assert stats["algorithm1"]["feasible"] >= stats["exact"]["feasible"] - 3
    # heuristic is never slower than the exact search (its node count is
    # linear; B&B prunes well on small instances but only grows from here)
    assert stats["algorithm1"]["time"] <= stats["exact"]["time"] + 1e-3
    # annealing never beats exact feasibility
    assert stats["anneal"]["feasible"] <= stats["exact"]["feasible"]


def test_ablation_gp_vs_parametric_outcomes(benchmark):
    """GP bank vs the paper's Eq. 2–3 separable regression on noisy data."""

    def run():
        from repro.outcomes import (
            OutcomeSurrogateBank,
            SeparableProduct,
            profile_configuration,
            r2_score,
        )
        from repro.outcomes.profiler import samples_to_arrays
        from repro.video import default_library

        clip = default_library(n_frames=30, rng=0)["mot16-04-like"]
        gen = as_generator(3)
        pts = np.column_stack(
            [gen.uniform(300, 2000, 150), gen.uniform(1, 30, 150)]
        )
        x_tr, y_tr = samples_to_arrays(
            [
                profile_configuration(clip, r, s, measurement_noise=0.15, rng=gen)
                for r, s in pts
            ]
        )
        pts_te = np.column_stack(
            [gen.uniform(300, 2000, 40), gen.uniform(1, 30, 40)]
        )
        x_te, y_te = samples_to_arrays(
            [profile_configuration(clip, r, s, rng=gen) for r, s in pts_te]
        )
        bank = OutcomeSurrogateBank(
            resolution_bounds=(300, 2000), fps_bounds=(1, 30)
        ).fit(x_tr, y_tr, rng=0)
        gp_r2 = bank.r2_per_objective(x_te, y_te)
        para_r2 = {}
        from repro.outcomes.functions import OBJECTIVES

        for j, name in enumerate(OBJECTIVES):
            model = SeparableProduct(deg_r=2, deg_s=2).fit(
                x_tr[:, 0], x_tr[:, 1], y_tr[:, j]
            )
            para_r2[name] = r2_score(y_te[:, j], model.predict(x_te[:, 0], x_te[:, 1]))
        return gp_r2, para_r2

    gp_r2, para_r2 = run_once(benchmark, run)
    rows = [[k, gp_r2[k], para_r2[k]] for k in gp_r2]
    print()
    print(
        format_table(
            ["objective", "GP R²", "θ(r)·ε(s) R²"],
            rows,
            title="Ablation: GP vs parametric outcome models",
        )
    )
    # GP at least as good on average (it contains the parametric shapes)
    assert np.mean(list(gp_r2.values())) >= np.mean(list(para_r2.values())) - 0.02
