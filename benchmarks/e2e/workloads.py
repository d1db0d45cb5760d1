"""The two end-to-end workloads.

A workload turns the benchmark seed into ``inputs`` inputs, sets up
(``prepare``) and then runs *units*: one problem instance (PaMO) or
one replay of the event log (serve loop, a single input).  A unit
reports the wall time of each decision it made, timed here from outside
the program, plus the quality of those decisions, a digest of what was
decided, the correctness failures found and deterministic counts for
the per-layer report.  README.md says why each workload exists.

Unit ``k`` of seed ``s`` always receives the same inputs, so a unit can
be repeated (in later rounds, or traced) on identical work.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines import make_scheduler
from repro.bench.harness import BANDWIDTH_CHOICES, make_problem
from repro.core import EVAProblem, make_preference
from repro.gp import cache as chol_cache
from repro.obs import exposition
from repro.obs.health import HealthMonitor, default_rules
from repro.obs.metrics import MetricsRegistry
from repro.sched.assignment import clear_assignment_cache
from repro.sched.theory import const1_satisfied, const2_satisfied
from repro.serve import (
    AdmissionController,
    ChurnProfile,
    EventLog,
    SchedulerService,
    WriteAheadLog,
    approx_preference,
    generate_load,
    service_spec,
)


#: testbed horizon for measuring a PaMO decision (as the figure experiments)
MEASURE_HORIZON_S = 4.0
#: serve epochs between two ``render_prometheus`` scrapes
SCRAPE_EVERY = 50


def derive_seed(*key: int) -> int:
    """Independent 32-bit seed for a (benchmark seed, index, ...) key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


@dataclass
class UnitResult:
    """What one unit did; ``wall_s`` covers only program work."""

    latencies_s: list[float]
    quality: list[float]
    digest: str
    failures: list[str]
    wall_s: float
    counts: dict[str, float] = field(default_factory=dict)
    #: the program's own ``ServeDecision.latency_s`` per timed decision
    reported_s: list[float] = field(default_factory=list)


def clear_process_caches() -> None:
    """Empty the program's process-wide memo caches before a unit.

    The Hungarian-solve memo and the Cholesky LRU outlive a unit; a
    replay of the same log would otherwise hit on every key its
    predecessor stored, which no live service ever sees, and a unit's
    cost would depend on which units ran before it.
    """
    clear_assignment_cache()
    chol_cache.clear()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def digest_of(digests) -> str:
    """One digest over a sequence of unit digests."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


# -- PaMO batch workloads ------------------------------------------------------
@dataclass(frozen=True)
class PamoWorkload:
    """PaMO (Algorithm 2) on seeded §5 problem instances.

    A unit draws instance ``k`` (§5.2 bandwidths), builds its Eq. 13
    true preference (``make_preference``), times one ``optimize()`` call,
    runs the decision on the discrete-event testbed and scores it with
    the true preference.  ``delta`` in ``pamo_kwargs`` is below any
    benefit change, so every call runs exactly ``n_iterations`` BO
    iterations.
    """

    name: str
    n_streams: int
    n_servers: int
    #: problem instances; one round of a run decides each once
    inputs: int
    pamo_kwargs: tuple[tuple[str, object], ...]

    def prepare(self, seed: int, workdir: Path) -> "PamoState":
        """Warm-up: one 3-stream/2-server run with the same budgets."""
        problem = make_problem(3, 2, rng=derive_seed(seed, 1 << 20))
        make_scheduler(
            "pamo",
            problem,
            preference=make_preference(problem),
            rng=derive_seed(seed, 1 << 20, 1),
            **dict(self.pamo_kwargs),
        ).optimize()
        return PamoState(seed)

    def unit(self, state: "PamoState", k: int, tracer=None) -> UnitResult:
        clear_process_caches()
        with tracer if tracer is not None else contextlib.nullcontext():
            t_unit = time.perf_counter()
            problem = make_problem(
                self.n_streams, self.n_servers, rng=derive_seed(state.seed, k)
            )
            preference = make_preference(problem)
            scheduler = make_scheduler(
                "pamo",
                problem,
                preference=preference,
                rng=derive_seed(state.seed, k, 1),
                **dict(self.pamo_kwargs),
            )
            t0 = time.perf_counter()
            out = scheduler.optimize()
            latency = time.perf_counter() - t0
            d = out.decision
            measured = problem.evaluate_measured(
                d.resolutions, d.fps, horizon=MEASURE_HORIZON_S
            )
            gap = -float(preference.value(measured))
            wall = time.perf_counter() - t_unit
        chol_after = chol_cache.stats()
        failures = []
        if "fallback" in out.extras:
            failures.append(f"instance {k}: fallback schedule ({out.extras['fallback']})")
        if not problem.is_feasible(d.resolutions, d.fps):
            failures.append(f"instance {k}: decision violates Const2")
        if not np.all(np.isfinite(measured)):
            failures.append(f"instance {k}: non-finite measured outcome")
        return UnitResult(
            latencies_s=[latency],
            quality=[gap],
            digest=_digest(
                np.asarray(d.resolutions, dtype="<f8"),
                np.asarray(d.fps, dtype="<f8"),
                np.asarray(d.assignment, dtype="<i8"),
            ),
            failures=failures,
            wall_s=wall,
            counts={
                "bo.loop.iterations": out.n_iterations,
                "pref.learner.dm_queries": out.n_dm_queries,
                "core.pamo.fallbacks": int("fallback" in out.extras),
                "gp.chol_hits": chol_after["hits"],
                "gp.chol_misses": chol_after["misses"],
            },
        )


@dataclass
class PamoState:
    seed: int

    def close(self) -> None:
        pass


# -- serve workloads -----------------------------------------------------------
@dataclass(frozen=True)
class ServeWorkload:
    """One seeded churn log replayed through fresh hardened services.

    A unit builds a service over the initial population, ``start()``s
    it (the warm-up full solve, untimed), submits the whole log and
    then times each ``run(max_epochs=1)`` call: one client, closed
    loop, the epoch clock waiting for every decision.  The service
    admits by priority class (every 10th stream id is class 2 and
    protected, the rest class 1; at most 2 joins per epoch), journals
    to a ``WriteAheadLog`` — whose sync ends every ``run`` call — and
    feeds a ``MetricsRegistry`` and the stock ``HealthMonitor``, scraped
    with ``render_prometheus`` every :data:`SCRAPE_EVERY` epochs.
    """

    name: str
    n_streams: int
    n_servers: int
    profile: ChurnProfile
    reoptimize_every: int
    #: one event log; one round of a run replays it once
    inputs: int = 1

    def prepare(self, seed: int, workdir: Path) -> "ServeState":
        """Generate the log, then warm up: build one service and start it."""
        log = generate_load(
            self.n_streams,
            self.n_servers,
            profile=self.profile,
            seed=derive_seed(seed, 0),
        )
        bandwidths = np.random.default_rng(derive_seed(seed, 1)).choice(
            BANDWIDTH_CHOICES, size=self.n_servers
        )
        state = ServeState(
            log=log,
            bandwidths=bandwidths,
            workdir=Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=workdir)),
        )
        service, wal, _ = self._service(state, "warmup")
        service.start()
        wal.close()
        return state

    def _service(self, state: "ServeState", tag: str):
        problem = EVAProblem(self.n_streams, state.bandwidths)
        n_ids = self.n_streams + len(state.log.events)
        admission = AdmissionController(
            priority_map={sid: 2 for sid in range(0, n_ids, 10)},
            default_priority=1,
            join_rate_per_epoch=2.0,
            protect_priority=2,
        )
        service = SchedulerService(
            problem,
            preference=approx_preference(problem),
            reoptimize_every=self.reoptimize_every,
            admission=admission,
        )
        wal = WriteAheadLog.create(
            state.workdir / f"{tag}.wal",
            service_spec(
                n_streams=self.n_streams,
                bandwidths_mbps=state.bandwidths,
                reoptimize_every=self.reoptimize_every,
                admission=admission.snapshot(),
            ),
        )
        service.attach_wal(wal)
        registry = MetricsRegistry()
        service.attach_observability(metrics=registry, monitor=HealthMonitor(default_rules()))
        return service, wal, registry

    def unit(self, state: "ServeState", k: int, tracer=None) -> UnitResult:
        clear_process_caches()
        latencies: list[float] = []
        reported: list[float] = []
        clock = time.perf_counter
        with tracer if tracer is not None else contextlib.nullcontext():
            t_unit = clock()
            service, wal, registry = self._service(state, f"replay{k}")
            service.start()
            service.submit(state.log.events)
            while service.queue:
                t0 = clock()
                made = service.run(max_epochs=1)
                latencies.append(clock() - t0)
                reported.append(made[0].latency_s)
                if len(latencies) % SCRAPE_EVERY == 0:
                    exposition.render_prometheus(registry)
            wal.close()
            wall = clock() - t_unit
        decisions = service.decisions
        sigs = [d.sig_hash() for d in decisions]
        failures = []
        streams, assignment = service.planner.as_periodic_streams()
        if not const1_satisfied(streams, assignment):
            failures.append(f"replay {k}: final schedule violates Const1")
        if not const2_satisfied(streams, assignment):
            failures.append(f"replay {k}: final schedule violates Const2")
        counts = {
            "serve.engine.full_solves": sum(d.full_solve for d in decisions),
            "serve.engine.cache_hits": sum(d.cache_hits for d in decisions),
            "serve.engine.solved": sum(d.solved for d in decisions),
            "serve.wal.bytes": os.path.getsize(wal.path),
        }
        return UnitResult(
            latencies_s=latencies,
            quality=[-d.benefit for d in decisions if d.benefit is not None],
            digest=digest_of(sigs),
            failures=failures,
            wall_s=wall,
            counts=counts,
            reported_s=reported,
        )


@dataclass
class ServeState:
    log: EventLog
    bandwidths: np.ndarray
    workdir: Path

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS: dict[str, PamoWorkload | ServeWorkload] = {
    w.name: w
    for w in (
        PamoWorkload(
            name="pamo_paper",
            n_streams=10,
            n_servers=5,
            inputs=8,
            pamo_kwargs=(("delta", 1e-12), ("n_iterations", 4)),
        ),
        ServeWorkload(
            name="serve_overload",
            n_streams=120,
            n_servers=16,
            profile=ChurnProfile(
                hours=0.25,
                arrivals_per_hour=1500,
                departures_per_hour=1500,
                burst_start_s=300.0,
                burst_duration_s=300.0,
                burst_multiplier=8.0,
            ),
            reoptimize_every=8,
        ),
    )
}
