"""Alternative periodic-schedule solvers (§6, Periodic Scheduling).

The paper's related work frames non-preemptive periodic scheduling as
ILP / CP / SMT problems solved exactly or by metaheuristics, and notes
those solvers "cannot be directly applied ... because they do not
consider minimizing communication latency".  This module provides two
such solvers over the *same* Const2 feasibility structure so Algorithm 1
can be ablated against them:

* :func:`exact_grouping` — exhaustive branch-and-bound over group
  assignments (the ILP-equivalent ground truth for small instances);
  finds a feasible grouping whenever one exists and can additionally
  minimize the communication-latency objective.
* :class:`AnnealedScheduler` — simulated annealing over full assignment
  vectors with a Const2-violation penalty (the metaheuristic family).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sched.grouping import (
    GroupingResult,
    InfeasibleScheduleError,
    ZeroJitterGroup,
)
from repro.sched.streams import PeriodicStream
from repro.sched.theory import theorem3_conditions
from repro.utils import as_generator, check_array_1d
from repro.utils.rng import RngLike


def _comm_cost(
    groups: list[list[PeriodicStream]], bandwidths: np.ndarray
) -> float:
    """Best-case communication cost: greedy group→server matching.

    Uses the same bits-per-second weighting as the Hungarian step; for
    branch-and-bound bounding purposes a greedy matching (heaviest group
    on fattest remaining link) is sufficient and cheap.
    """
    rates = sorted(
        (sum(s.bits_per_frame * s.fps for s in g) for g in groups), reverse=True
    )
    bw = np.sort(bandwidths)[::-1]
    return float(sum(r / (b * 1e6) for r, b in zip(rates, bw)))


def exact_grouping(
    streams: Sequence[PeriodicStream],
    n_servers: int,
    *,
    bandwidths_mbps: Sequence[float] | None = None,
    max_nodes: int = 200_000,
) -> GroupingResult:
    """Branch-and-bound over all group assignments.

    Explores stream-by-stream placements into at most ``n_servers``
    groups, pruning branches whose partial grouping violates Theorem 3
    and (symmetry-breaking) never opening group j+1 before group j.
    When ``bandwidths_mbps`` is given, minimizes the greedy
    communication cost; otherwise returns the first feasible grouping.

    Raises :class:`InfeasibleScheduleError` when no feasible grouping
    exists, ``RuntimeError`` when the search exceeds ``max_nodes``.
    """
    if n_servers < 1:
        raise ValueError(f"n_servers must be >= 1, got {n_servers}")
    streams = list(streams)
    bw = (
        check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
        if bandwidths_mbps is not None
        else None
    )
    # Shortest period first (heaviest first within a period).  Theorem 3
    # is not closed under subsets — {T=0.5, T=0.2} violates it while
    # {T=0.5, T=0.2, T=0.1} holds — but a group's shortest-period
    # members always satisfy it when the whole group does, so pruning
    # partial groups is exact only in this order.
    order = sorted(
        range(len(streams)),
        key=lambda i: (streams[i].period, -streams[i].processing_time),
    )
    best: tuple[float, list[list[PeriodicStream]]] | None = None
    nodes = 0

    def dfs(pos: int, groups: list[ZeroJitterGroup]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > max_nodes:
            raise RuntimeError(f"search budget exceeded ({max_nodes} nodes)")
        if pos == len(streams):
            members = [g.members for g in groups]
            cost = _comm_cost(members, bw) if bw is not None else 0.0
            if best is None or cost < best[0]:
                best = (cost, [list(m) for m in members])
            return
        if best is not None and bw is None:
            return  # feasibility-only: first solution wins
        s = streams[order[pos]]
        opened = len(groups)
        for j in range(opened):
            if groups[j].fits(s):
                groups[j].add(s)
                dfs(pos + 1, groups)
                groups[j].remove(s)
        if opened < n_servers:
            fresh = ZeroJitterGroup()
            fresh.add(s)
            groups.append(fresh)
            dfs(pos + 1, groups)
            groups.pop()

    dfs(0, [])
    if best is None:
        raise InfeasibleScheduleError(
            f"no Const2-feasible grouping of {len(streams)} streams "
            f"on {n_servers} servers exists"
        )
    groups = best[1]
    groups.extend([] for _ in range(n_servers - len(groups)))
    return GroupingResult(groups=groups)


@dataclass
class AnnealResult:
    """Outcome of a simulated-annealing schedule search."""

    assignment: list[int]
    cost: float
    feasible: bool
    n_iterations: int


class AnnealedScheduler:
    """Simulated annealing over assignment vectors (metaheuristic PSP).

    State: q ∈ {0..N−1}^M.  Energy: communication latency plus a large
    penalty per server group violating Theorem 3.  Moves reassign one
    random stream.  Geometric cooling.

    Parameters
    ----------
    penalty:
        Energy added per infeasible group (dominates the comm term).
    t0, cooling, n_iters:
        Initial temperature, geometric factor, iteration budget.
    """

    def __init__(
        self,
        *,
        penalty: float = 10.0,
        t0: float = 1.0,
        cooling: float = 0.995,
        n_iters: int = 3000,
        rng: RngLike = None,
    ) -> None:
        if not (0 < cooling < 1):
            raise ValueError(f"cooling must be in (0, 1), got {cooling}")
        self.penalty = float(penalty)
        self.t0 = float(t0)
        self.cooling = float(cooling)
        self.n_iters = int(n_iters)
        self._rng = as_generator(rng)

    def _energy(
        self,
        assignment: np.ndarray,
        streams: list[PeriodicStream],
        bw: np.ndarray,
    ) -> tuple[float, bool]:
        groups: dict[int, list[PeriodicStream]] = {}
        comm = 0.0
        for s, q in zip(streams, assignment):
            groups.setdefault(int(q), []).append(s)
            comm += s.bits_per_frame / (bw[int(q)] * 1e6)
        violations = sum(
            0 if theorem3_conditions(g) else 1 for g in groups.values()
        )
        return comm + self.penalty * violations, violations == 0

    def solve(
        self,
        streams: Sequence[PeriodicStream],
        bandwidths_mbps: Sequence[float],
    ) -> AnnealResult:
        """Anneal an assignment for ``streams`` over the given servers."""
        streams = list(streams)
        bw = check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
        n = bw.size
        m = len(streams)
        state = self._rng.integers(0, n, m)
        energy, _ = self._energy(state, streams, bw)
        best_state = state.copy()
        best_energy = energy
        t = self.t0
        for _ in range(self.n_iters):
            i = int(self._rng.integers(0, m))
            old = state[i]
            state[i] = self._rng.integers(0, n)
            cand, _ = self._energy(state, streams, bw)
            delta = cand - energy
            if delta <= 0 or self._rng.random() < math.exp(-delta / max(t, 1e-12)):
                energy = cand
                if energy < best_energy:
                    best_energy = energy
                    best_state = state.copy()
            else:
                state[i] = old
            t *= self.cooling
        _, feasible = self._energy(best_state, streams, bw)
        return AnnealResult(
            assignment=best_state.tolist(),
            cost=best_energy,
            feasible=feasible,
            n_iterations=self.n_iters,
        )
