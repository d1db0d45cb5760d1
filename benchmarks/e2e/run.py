#!/usr/bin/env python3
"""End-to-end benchmark of the PaMO reproduction and its serve loop.

One workload per invocation (the form of ``command`` in BENCHMARK.json)::

    python3 benchmarks/e2e/run.py --workload serve_overload --seed 0 --seconds 50 --trace 0

prints every end-to-end metric by name and unit and, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  ``--trace 1``
replaces the timed phase with the traced run and prints the per-layer
metrics instead.  Without ``--workload`` every workload runs, each in
its own fresh subprocess, one after another.  ``--out DIR`` also writes
each run's full record (and, traced, its ``spans.json``) into DIR for
``compare.py``.  Exit status: 0 when every correctness check passed, 1
when one failed or the program's sources are missing, 2 on a usage
error.

The program is imported from ``src/`` of the checkout this file sits
in; nothing is installed.  Temporary files (the serve WALs) live under
``.bench_e2e/`` at the checkout root and are removed at exit.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s runs from here to the first timed call

import os  # noqa: E402

# One BLAS thread unless the caller says otherwise: on a 2-core machine
# OpenBLAS's spinning workers cost more CPU than they save on the GP's
# small matrices, and they made run-to-run times noisier.  Must be set
# before numpy is first imported; set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: extra cold set-ups per untimed run; setup_s is the median with our own
SETUP_PROBES = 2
#: rounds every untimed run makes, however long they take
MIN_ROUNDS = 2
#: rounds of the traced run; each runs every input untraced and traced
TRACE_ROUNDS = 3


def _workdir() -> Path:
    path = ROOT / ".bench_e2e"
    path.mkdir(exist_ok=True)
    return path


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check it is used."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {package}")


# -- the measured phases -------------------------------------------------------
def measure(workload, state, seconds: float) -> list:
    """Run rounds until the next one would end past ``seconds``.

    A round is one unit per input, in input order, so unit ``i`` of the
    result ran input ``i % workload.inputs``.  At least
    :data:`MIN_ROUNDS` rounds run, so every decision is timed at least
    twice.
    """
    units = []
    start = time.perf_counter()
    while True:
        n = len(units) // workload.inputs
        elapsed = time.perf_counter() - start
        if n >= MIN_ROUNDS and elapsed * (n + 1) / n > seconds:
            return units
        units.extend(workload.unit(state, k) for k in range(workload.inputs))


def best_of_rounds(workload, units):
    """Each decision's fastest time over the rounds that repeated it.

    Contention on a shared host comes in bursts that can double a
    decision's time; a repeat in another round mostly misses a burst
    shorter than the run, so the fastest repeat is closest to the
    program's own cost.  Repeats of an input make the same decisions
    (checked), so their latency lists line up.
    """
    import numpy as np

    best = []
    for k in range(workload.inputs):
        repeats = units[k :: workload.inputs]
        n = min(len(u.latencies_s) for u in repeats)
        best.append(np.min([u.latencies_s[:n] for u in repeats], axis=0))
    return np.concatenate(best)


def traced_run(workload, state, tracer) -> tuple[list, list]:
    """:data:`TRACE_ROUNDS` rounds of each input, once untraced, once traced.

    Which goes first alternates, so caches warmed by one pass favour
    each side equally; the ratio of their best-of-rounds wall times is
    the tracing overhead.
    """
    plain, traced = [], []
    for r in range(TRACE_ROUNDS):
        for k in range(workload.inputs):
            for on in (False, True) if (r + k) % 2 == 0 else (True, False):
                if on:
                    tracer.unit = k
                    traced.append(workload.unit(state, k, tracer))
                else:
                    plain.append(workload.unit(state, k))
    return plain, traced


def setup_probes(args) -> list[float]:
    """Cold set-up times of fresh processes doing exactly our set-up."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


# -- metrics -------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end_metrics(workload, units, setup_samples) -> dict[str, float]:
    import numpy as np

    lat = best_of_rounds(workload, units)
    quality = [q for u in units[: workload.inputs] for q in u.quality]
    return {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "decision_ms_p50": float(np.percentile(lat, 50)) * 1e3,
        "decisions_per_s": lat.size / float(lat.sum()),
        "utopia_gap_mean": statistics.fmean(quality),
    }


def latency_detail(workload, units) -> dict:
    """Record-only latency numbers: the tail and a per-unit breakdown.

    ``decision_ms_p99`` (best of rounds) is not gated: a pamo_paper
    round makes 8 decisions, so its 99th percentile is the slowest one.
    ``pooled_ms_p50`` is the median over every timed call, bursts
    included.
    """
    import numpy as np

    pooled = [x for u in units for x in u.latencies_s]
    return {
        "decision_ms_p99": float(np.percentile(best_of_rounds(workload, units), 99)) * 1e3,
        "pooled_ms_p50": float(np.median(pooled)) * 1e3,
        "per_unit": [
            {"wall_s": u.wall_s, "decisions": len(u.latencies_s),
             "decision_ms_p50": float(np.median(u.latencies_s)) * 1e3}
            for u in units
        ],
    }


def _best_wall(workload, units) -> float:
    """Sum over inputs of each input's fastest unit wall time."""
    return sum(min(u.wall_s for u in units[k :: workload.inputs]) for k in range(workload.inputs))


def per_layer_metrics(workload, tracer, plain, traced) -> tuple[dict[str, float], dict]:
    import trace

    stats = tracer.layer_stats()
    wall = sum(u.wall_s for u in traced)
    counts: dict[str, float] = {}
    for u in traced:
        for key, n in u.counts.items():
            counts[key] = counts.get(key, 0) + n
    c = {**tracer.counters, **counts}
    metrics: dict[str, float] = {}
    for layer in trace.LAYERS:
        metrics[f"{layer}.calls"] = stats[layer]["calls"]
        metrics[f"{layer}.share"] = stats[layer]["self_s"] / wall
    is_feasible = c.get("core.problem.is_feasible", 0)
    requests = c.get("serve.admission.requests", 0)
    failed_joins = c.get("serve.admission.rejected", 0) + c.get("serve.admission.shed", 0)
    hits = c.get("serve.engine.cache_hits", 0)
    # (self-reported, timed from outside) per serve decision
    reported = [(r, t) for u in plain for r, t in zip(u.reported_s, u.latencies_s)]
    metrics.update({
        "core.problem.infeasible_share": _ratio(c.get("core.problem.infeasible", 0), is_feasible),
        "core.problem.feasible_cache_hit_ratio": (
            1 - _ratio(c.get("core.problem.strict_schedules", 0), is_feasible)
            if is_feasible else 0.0
        ),
        "outcomes.surrogate.chol_cache_hit_ratio": _ratio(
            c.get("gp.chol_hits", 0), c.get("gp.chol_hits", 0) + c.get("gp.chol_misses", 0)
        ),
        "bo.loop.iterations": c.get("bo.loop.iterations", 0),
        "pref.learner.dm_queries": c.get("pref.learner.dm_queries", 0),
        "core.pamo.fallbacks": c.get("core.pamo.fallbacks", 0),
        "sim.frames_per_s": _ratio(c.get("sim.frames", 0), stats["sim"]["self_s"]),
        "serve.engine.cache_hit_ratio": _ratio(hits, hits + c.get("serve.engine.solved", 0)),
        "serve.engine.full_solves": c.get("serve.engine.full_solves", 0),
        "serve.admission.rejected": c.get("serve.admission.rejected", 0),
        "serve.admission.shed": c.get("serve.admission.shed", 0),
        "serve.admission.evicted": c.get("serve.admission.evicted", 0),
        "serve.admission.join_fail_share": _ratio(failed_joins, requests),
        "serve.wal.bytes": c.get("serve.wal.bytes", 0),
        "serve.service.reported_latency_share": _ratio(
            sum(r for r, _ in reported), sum(t for _, t in reported)
        ),
        "trace.overhead_share": _best_wall(workload, traced) / _best_wall(workload, plain) - 1,
        "trace.unattributed_share": 1 - sum(s["self_s"] for s in stats.values()) / wall,
    })
    detail = {
        "wall_s": wall,
        "layers": stats,
        "dominant_layer": max(trace.LAYERS, key=lambda layer: stats[layer]["self_s"]),
        "counters": c,
    }
    return metrics, detail


# -- one workload --------------------------------------------------------------
def evaluate(workload, seed: int, *, seconds: float, traced: bool, spec: dict,
             probe=list) -> tuple[dict, dict, object]:
    """Set up, run and check one workload.

    Returns the result line (``correct``/``attempted``/``failed``/
    ``metrics``), the full record for ``--out`` and the tracer (None
    when untraced).  ``probe()`` returns extra cold set-up samples.
    """
    import trace
    import workloads

    state = workload.prepare(seed, _workdir())
    own_setup_s = time.perf_counter() - _T0
    record: dict = {"workload": workload.name, "seed": seed, "trace": traced,
                    "started_at": time.time(), "seconds": seconds}
    tracer = None
    try:
        if traced:
            tracer = trace.Tracer(f"{workload.name}-seed{seed}-{os.getpid()}")
            plain, traced_units = traced_run(workload, state, tracer)
            units = plain + traced_units
            metrics, detail = per_layer_metrics(workload, tracer, plain, traced_units)
            record.update(detail)
            names = spec["per_layer"]
        else:
            setup = [own_setup_s, *probe()]
            units = measure(workload, state, seconds)
            metrics = end_to_end_metrics(workload, units, setup)
            record.update(setup_samples=setup, **latency_detail(workload, units))
            names = spec["end_to_end"]
    finally:
        state.close()

    units_of = {m["name"]: m["unit"] for m in names}
    if set(metrics) != set(units_of):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units_of))}")
    # every repeat of an input (later rounds, or the traced pass) decides alike
    for i in range(workload.inputs, len(units)):
        k = i % workload.inputs
        if units[i].digest != units[k].digest:
            repeat = i // workload.inputs
            units[i].failures.append(f"input {k}: repeat {repeat} decided differently")
    failures = [f for u in units for f in u.failures]
    result = {
        "correct": not failures,
        "attempted": sum(len(u.latencies_s) for u in units),
        "failed": sum(len(u.latencies_s) for u in units if u.failures),
        "metrics": {name: {"value": metrics[name], "unit": units_of[name]} for name in units_of},
    }
    record.update(
        units=len(units),
        digest=workloads.digest_of(u.digest for u in units[: workload.inputs]),
        failures=failures,
        **result,
    )
    return result, record, tracer


def run_workload(args, spec: dict) -> int:
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        state = workload.prepare(args.seed, _workdir())
        setup_s = time.perf_counter() - _T0
        state.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result, record, tracer = evaluate(
        workload, args.seed, seconds=args.seconds, traced=bool(args.trace), spec=spec,
        probe=lambda: setup_probes(args),
    )
    print(f"{args.workload} seed={args.seed} trace={int(bool(args.trace))}: "
          f"{record['units']} units, {result['attempted']} decisions, digest {record['digest']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
    if tracer is not None:
        print(f"  dominant layer: {record['dominant_layer']}")
    else:
        print(f"  (not gated) decision_ms_p99 {record['decision_ms_p99']:.6g} ms")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}.seed{args.seed}.{'trace' if tracer else 'run'}.{time.time_ns()}"
        (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
        if tracer is not None:
            tracer.write(out / f"{stem}.spans.json", workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args, spec: dict) -> int:
    """Every workload in its own fresh subprocess, one after another."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(bool(args.trace)))]
        if args.out:
            cmd += ["--out", str(Path(args.out).resolve())]
        status = max(status, subprocess.run(cmd, cwd=ROOT, timeout=900).returncode)
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run one workload (default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--out", help="directory for full run records and spans")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
