"""Hot-path micro-benchmarks: timed runs and work counters for the hot kernels.

Each benchmark drives one hot kernel on fixed seeds and emits a
``BENCH_<name>.json`` record:

* ``bo_hot_path`` — the headline loop: an :class:`OutcomeSurrogateBank`
  conditioned on M new per-stream observations per BO iteration with a
  qNEI batch selection each round;
* ``gp_update`` — block-Cholesky appends on a single GP;
* ``acquisition_batch`` — vectorized greedy qNEI batch selection;
* ``eubo_pairs`` — vectorized Clark-formula EUBO pair scoring;
* ``assignment_cache`` — memoized Hungarian group→server solves;
* ``serve_full_solve`` — the serve planner's full re-solve
  (:meth:`~repro.serve.engine.IncrementalPlanner.solve_all`) over a
  seeded stream population.

Each record carries wall time, iterations/s and the ``repro.obs``
cache/vectorization counters of the timed run.  The counters are
deterministic at a fixed seed, so :func:`check_result` gates a run on
them: a counter that differs from the recorded baseline means the hot
path did different work (e.g. fell back to full refits).  Wall time is
reported, not gated — it varies run to run by more than any useful
bound.  ``repro bench`` is the CLI front-end (the CI ``bench-smoke``
job runs it with ``--check``).
"""

from __future__ import annotations

import copy
import time
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.obs import telemetry

#: Counter names reported per benchmark (missing counters report 0).
_COUNTERS = (
    "gp.chol_cache_hits",
    "gp.chol_cache_misses",
    "gp.rank1_updates",
    "gp.rank1_fallbacks",
    "acq.vectorized_batches",
    "acq.eubo_vectorized_pairs",
    "sched.assign_cache_hits",
    "sched.assign_cache_misses",
    "serve.engine.solve_all_calls",
    "serve.engine.upgrade_attempts",
)

#: Per-benchmark sizing knobs.  ``medium`` is the acceptance
#: configuration (M=16 streams, 50 BO iterations); ``smoke`` is small
#: enough for CI and the unit tests.
PROFILES: dict[str, dict[str, dict[str, int]]] = {
    "smoke": {
        "bo_hot_path": {"m": 4, "iters": 6, "n_init": 24, "pool": 4, "n_samples": 16},
        "gp_update": {"n_init": 60, "rounds": 4, "block": 8},
        "acquisition_batch": {"pool": 64, "n_samples": 32, "batch": 4, "repeats": 5},
        "eubo_pairs": {"items": 24, "pairs": 80, "repeats": 4},
        "assignment_cache": {"streams": 8, "servers": 4, "variants": 5, "repeats": 100},
        "serve_full_solve": {"streams": 120, "servers": 16, "repeats": 3},
    },
    "medium": {
        "bo_hot_path": {"m": 16, "iters": 50, "n_init": 100, "pool": 6, "n_samples": 16},
        "gp_update": {"n_init": 300, "rounds": 10, "block": 20},
        "acquisition_batch": {"pool": 256, "n_samples": 128, "batch": 8, "repeats": 20},
        "eubo_pairs": {"items": 80, "pairs": 500, "repeats": 10},
        "assignment_cache": {"streams": 12, "servers": 6, "variants": 20, "repeats": 2000},
        "serve_full_solve": {"streams": 120, "servers": 16, "repeats": 30},
    },
}


def _reset_caches() -> None:
    from repro.gp import cache as gp_cache
    from repro.sched.assignment import clear_assignment_cache

    gp_cache.clear()
    clear_assignment_cache()


def _read_counters() -> dict[str, float]:
    counters = telemetry.snapshot().get("counters", {})
    return {k: float(counters.get(k, 0)) for k in _COUNTERS}


def _timed(fn: Callable[[], None], iterations: int) -> dict[str, float]:
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "iters_per_s": iterations / wall if wall > 0 else float("inf"),
    }


def _record(
    name: str,
    config: dict,
    seed: int,
    run: Callable[[], None],
    iterations: int,
) -> dict:
    """Time ``run()`` after a warm-up, with the counter deltas of the timed run."""
    owns_telemetry = not telemetry.enabled
    if owns_telemetry:
        telemetry.enable()
    try:
        _reset_caches()
        run()  # warm-up (JIT-free Python, but first-call allocs/imports)
        _reset_caches()
        before = _read_counters()
        timing = _timed(run, iterations)
        after = _read_counters()
    finally:
        _reset_caches()
        if owns_telemetry:
            telemetry.disable()
    return {
        "name": name,
        "config": config,
        "seed": seed,
        "iterations": iterations,
        **timing,
        "counters": {k: after[k] - before[k] for k in _COUNTERS},
    }


# ---------------------------------------------------------------------------
# synthetic data helpers


def _synthetic_outcomes(x: np.ndarray) -> np.ndarray:
    """Deterministic smooth (n, 5) outcome surface over raw (r, s) configs."""
    r = x[:, 0] / 2000.0
    s = x[:, 1] / 30.0
    return np.stack(
        [
            0.05 + 0.2 * r * r + 0.1 * s,          # ltc
            0.5 + 0.4 * np.tanh(3.0 * r) * s,      # acc
            2.0 * r * s,                            # net
            1.0 + r + 0.5 * s,                      # com
            0.5 + 0.8 * r * s,                      # eng
        ],
        axis=1,
    )


def _raw_configs(gen: np.random.Generator, n: int) -> np.ndarray:
    r = gen.uniform(200.0, 2000.0, size=n)
    s = gen.uniform(1.0, 30.0, size=n)
    return np.stack([r, s], axis=1)


def _fitted_bank(gen: np.random.Generator, n_init: int):
    from repro.outcomes.surrogate import OutcomeSurrogateBank

    x = _raw_configs(gen, n_init)
    y = _synthetic_outcomes(x) + 0.01 * gen.standard_normal((n_init, 5))
    bank = OutcomeSurrogateBank()
    bank.fit(x, y, optimize=True, rng=gen)
    return bank


# ---------------------------------------------------------------------------
# benchmarks


def bench_bo_hot_path(cfg: dict[str, int], seed: int) -> dict:
    """Surrogate-conditioning + qNEI loop: the BO per-iteration hot path.

    Each iteration scores a pool of candidate decisions (M streams
    each) with qNEI over joint posterior samples of the scalarized
    benefit, then conditions the bank on the M per-stream observations
    of the winning decision — exactly the Algorithm 2 inner loop with
    the preference model replaced by fixed weights.
    """
    from repro.bo.acquisition import QNEI

    m, iters, pool_size = cfg["m"], cfg["iters"], cfg["pool"]
    weights = np.array([-1.0, 1.0, -0.2, -0.2, -0.2])  # maximize acc, penalize costs

    setup_gen = np.random.default_rng(seed)
    base_bank = _fitted_bank(setup_gen, cfg["n_init"])

    def run() -> None:
        gen = np.random.default_rng(seed + 1)
        bank = copy.deepcopy(base_bank)
        acq = QNEI(n_samples=cfg["n_samples"])

        def sampler(x_flat: np.ndarray, n_samples: int, rng: np.random.Generator):
            per_stream = bank.sample_per_stream(x_flat, n_samples, rng=rng)
            benefit = per_stream @ weights  # (S, P*M)
            return benefit.reshape(n_samples, -1, m).mean(axis=2)  # (S, P)

        for _ in range(iters):
            decisions = _raw_configs(gen, pool_size * m).reshape(pool_size, m, 2)
            idx = acq.select_batch(
                lambda x, s, r: sampler(decisions.reshape(-1, 2), s, r),
                decisions.reshape(pool_size, -1),
                1,
                rng=gen,
            )
            chosen = decisions[int(idx[0])]
            y_new = _synthetic_outcomes(chosen) + 0.01 * gen.standard_normal((m, 5))
            bank.update(chosen, y_new)

    return _record("bo_hot_path", cfg, seed, run, iters)


def bench_gp_update(cfg: dict[str, int], seed: int) -> dict:
    """Incremental block-Cholesky appends on one fitted GP."""
    from repro.gp.kernels import Matern52Kernel
    from repro.gp.regression import GPRegressor

    n_init, rounds, block = cfg["n_init"], cfg["rounds"], cfg["block"]
    gen = np.random.default_rng(seed)
    x0 = gen.uniform(0.0, 1.0, size=(n_init, 2))
    y0 = np.sin(3.0 * x0[:, 0]) + x0[:, 1] ** 2 + 0.01 * gen.standard_normal(n_init)
    base = GPRegressor(Matern52Kernel(np.full(2, 0.3)), noise=1e-3)
    base.fit(x0, y0, optimize=True, rng=gen)
    extra_x = gen.uniform(0.0, 1.0, size=(rounds, block, 2))
    extra_y = (
        np.sin(3.0 * extra_x[..., 0])
        + extra_x[..., 1] ** 2
        + 0.01 * gen.standard_normal((rounds, block))
    )

    def run() -> None:
        gp = copy.deepcopy(base)
        for k in range(rounds):
            gp.update(extra_x[k], extra_y[k])

    return _record("gp_update", cfg, seed, run, rounds)


def bench_acquisition_batch(cfg: dict[str, int], seed: int) -> dict:
    """Vectorized greedy qNEI batch selection over a candidate pool."""
    from repro.bo.acquisition import QNEI

    pool_size, n_samples = cfg["pool"], cfg["n_samples"]
    batch, repeats = cfg["batch"], cfg["repeats"]
    gen = np.random.default_rng(seed)
    pool = gen.uniform(0.0, 1.0, size=(pool_size, 2))
    observed_x = gen.uniform(0.0, 1.0, size=(10, 2))

    def sampler(x: np.ndarray, s: int, rng: np.random.Generator) -> np.ndarray:
        mean = np.sin(4.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
        return mean[None, :] + 0.3 * rng.standard_normal((s, x.shape[0]))

    def run() -> None:
        acq = QNEI(n_samples=n_samples)
        for k in range(repeats):
            acq.select_batch(
                sampler, pool, batch, observed_x=observed_x, rng=seed + k
            )

    return _record("acquisition_batch", cfg, seed, run, repeats)


def bench_eubo_pairs(cfg: dict[str, int], seed: int) -> dict:
    """Vectorized Clark-formula EUBO scoring of candidate query pairs."""
    from repro.bo.eubo import eubo_for_pairs
    from repro.gp.preference import ComparisonData, PreferenceGP

    n_items, n_pairs, repeats = cfg["items"], cfg["pairs"], cfg["repeats"]
    gen = np.random.default_rng(seed)
    items = gen.uniform(0.0, 1.0, size=(n_items, 3))
    utility = items @ np.array([1.0, -0.5, 0.25])
    data = ComparisonData(items=items)
    for _ in range(3 * n_items):
        i, j = gen.choice(n_items, 2, replace=False)
        winner, loser = (i, j) if utility[i] >= utility[j] else (j, i)
        data.add_comparison(int(winner), int(loser))
    model = PreferenceGP().fit(data)
    pairs = []
    for _ in range(n_pairs):
        i, j = gen.choice(n_items, 2, replace=False)
        pairs.append((int(i), int(j)))

    def run() -> None:
        for _ in range(repeats):
            eubo_for_pairs(model, items, pairs)

    return _record("eubo_pairs", cfg, seed, run, repeats)


def bench_assignment_cache(cfg: dict[str, int], seed: int) -> dict:
    """Memoized Hungarian group→server solves over repeating inputs."""
    from repro.sched.assignment import solve_group_assignment

    n_groups = cfg["streams"]
    variants, repeats = cfg["variants"], cfg["repeats"]
    gen = np.random.default_rng(seed)
    rates = [gen.uniform(1e5, 1e7, size=n_groups) for _ in range(variants)]
    bw = gen.uniform(5.0, 30.0, size=cfg["servers"])

    def run() -> None:
        for k in range(repeats):
            solve_group_assignment(rates[k % variants], bw)

    return _record("assignment_cache", cfg, seed, run, repeats)


def bench_serve_full_solve(cfg: dict[str, int], seed: int) -> dict:
    """The serve planner's full re-solve over a fixed stream population.

    Admit-all at the minimum knob pair, then one benefit-ranked upgrade
    pass per stream — the periodic ``solve_all`` that forms the serve
    loop's latency tail.  ``serve.engine.upgrade_attempts`` counts the
    ``set_config`` attempts, so a change that skipped one would move it.
    """
    from repro.bench.harness import make_problem
    from repro.serve.engine import IncrementalPlanner, approx_preference

    repeats = cfg["repeats"]
    problem = make_problem(cfg["streams"], cfg["servers"], rng=seed)
    textures = {i: float(t) for i, t in enumerate(problem.textures)}
    planner = IncrementalPlanner.for_problem(
        problem, preference=approx_preference(problem)
    )

    def run() -> None:
        for _ in range(repeats):
            planner.solve_all(textures)

    return _record("serve_full_solve", cfg, seed, run, repeats)


BENCHMARKS: dict[str, Callable[[dict, int], dict]] = {
    "bo_hot_path": bench_bo_hot_path,
    "gp_update": bench_gp_update,
    "acquisition_batch": bench_acquisition_batch,
    "eubo_pairs": bench_eubo_pairs,
    "assignment_cache": bench_assignment_cache,
    "serve_full_solve": bench_serve_full_solve,
}


def run_benchmark(name: str, *, profile: str = "medium", seed: int = 0) -> dict:
    """Run one named benchmark; returns its ``BENCH_<name>.json`` record."""
    if name not in BENCHMARKS:
        raise ValueError(f"unknown benchmark {name!r}; choose from {sorted(BENCHMARKS)}")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    result = BENCHMARKS[name](dict(PROFILES[profile][name]), seed)
    result["profile"] = profile
    return result


def run_benchmarks(
    names: Sequence[str] | None = None, *, profile: str = "medium", seed: int = 0
) -> list[dict]:
    """Run the named benchmarks (default: all) in declaration order."""
    return [
        run_benchmark(n, profile=profile, seed=seed)
        for n in (names or list(BENCHMARKS))
    ]


def save_bench(result: dict, out_dir=".") -> Path:
    """Write a benchmark record to ``<out_dir>/BENCH_<name>.json``."""
    from repro.bench.io import save_results

    return save_results(result, Path(out_dir) / f"BENCH_{result['name']}.json")


def check_result(result: dict, baseline: dict) -> list[str]:
    """Regression check against a recorded baseline; returns failure strings.

    Fails on every counter whose value differs from the baseline's: at
    a fixed seed and profile the counters are deterministic, so a
    difference means the hot path did different work.  Wall time does
    not gate.
    """
    name = result["name"]
    ours, theirs = result["counters"], baseline["counters"]
    return [
        f"{name}: {k} = {ours.get(k, 0):g}, baseline {theirs.get(k, 0):g}"
        for k in sorted(set(ours) | set(theirs))
        if ours.get(k, 0) != theirs.get(k, 0)
    ]
