"""Group→server assignment (Algorithm 1, line 20).

Maps the logical groups produced by :func:`repro.sched.grouping.group_streams`
onto physical servers so as to minimize total communication latency

    min_q Σ_{G_j} Σ_{i ∈ G_j} θ_bit(r_i) / B_{q_j}

which is a linear assignment problem (each group's cost on server n is
its total bits divided by that server's uplink bandwidth), solved exactly
with the Hungarian algorithm (``scipy.optimize.linear_sum_assignment``).

The optimization loops evaluate thousands of candidate decisions whose
group bit-rates and server bandwidths repeat, so the Hungarian solve is
memoized on exactly its inputs (``(group rates, bandwidths)``) in a
:class:`repro.utils.lru.LRUCache` — see :func:`solve_group_assignment`.
Hits/misses are counted as ``sched.assign_cache_hits`` /
``sched.assign_cache_misses``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.sched.grouping import GroupingResult
from repro.sched.streams import PeriodicStream
from repro.utils import check_array_1d
from repro.utils.lru import LRUCache

#: Memoized Hungarian solves keyed on (group_rate bytes, bandwidth bytes).
_ASSIGN_CACHE = LRUCache(maxsize=4096, counters="sched.assign_cache")


def clear_assignment_cache() -> None:
    """Drop all memoized Hungarian solves."""
    _ASSIGN_CACHE.clear()


def assignment_cache_size() -> int:
    """Number of memoized Hungarian solves currently held."""
    return len(_ASSIGN_CACHE)


def solve_group_assignment(
    group_rate: np.ndarray, bandwidths_mbps: np.ndarray
) -> tuple[int, ...]:
    """Server index per group minimizing Σ rate_j / B_{q_j} (Hungarian).

    ``group_rate`` is each group's total bit-rate (bits/s); the cost of
    putting group j on server n is ``group_rate_j / B_n`` so heavy
    groups land on fat uplinks.  Empty groups cost zero everywhere and
    absorb the surplus servers.  Results are memoized on the exact
    input arrays (the cost matrix is a deterministic function of them).
    """
    rate = np.ascontiguousarray(np.asarray(group_rate, dtype=float))
    bw = np.ascontiguousarray(np.asarray(bandwidths_mbps, dtype=float))

    def solve() -> tuple[int, ...]:
        cost = rate[:, None] / (bw[None, :] * 1e6)
        row, col = linear_sum_assignment(cost)
        server_of_group = np.full(rate.size, -1, dtype=int)
        server_of_group[row] = col
        return tuple(int(v) for v in server_of_group)

    return _ASSIGN_CACHE.get_or_compute(rate.tobytes() + b"|" + bw.tobytes(), solve)


def communication_latency(
    streams: Sequence[PeriodicStream], assignment: Sequence[int], bandwidths_mbps: Sequence[float]
) -> float:
    """Total per-frame serialization latency Σ θ_bit(r_i) / B_{q_i} (s)."""
    bw = check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
    total = 0.0
    for s, q in zip(streams, assignment):
        if q == -1:
            continue
        if not (0 <= q < bw.size):
            raise ValueError(f"assignment {q} out of range for {bw.size} servers")
        total += s.bits_per_frame / (bw[q] * 1e6)
    return total


def _group_rates(grouping: GroupingResult) -> np.ndarray:
    """Total bit-rate (bits/s) per group: Σ bits_per_frame × fps.

    Bits *per second* (not per frame) so the objective weighs
    frequently-sending streams more, matching the average-
    communication-latency objective over time.
    """
    return np.array(
        [sum(s.bits_per_frame * s.fps for s in grp) for grp in grouping.groups]
    )


def assign_groups_to_servers(
    grouping: GroupingResult,
    bandwidths_mbps: Sequence[float],
) -> list[int]:
    """Hungarian mapping of groups to servers; returns per-stream q vector.

    The returned list is indexed by *stream order in the grouping* —
    callers should use :meth:`resolve_assignment` for an id-keyed view.
    The underlying solve is memoized (see :func:`solve_group_assignment`).
    """
    bw = check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
    n_groups = len(grouping.groups)
    if n_groups > bw.size:
        raise ValueError(f"{n_groups} groups but only {bw.size} servers")

    server_of_group = solve_group_assignment(_group_rates(grouping), bw)
    # Return q in the order streams appear in the grouping's flat list.
    return [server_of_group[j] for j, grp in enumerate(grouping.groups) for _ in grp]


def reassign_to_surviving(
    streams: Sequence[PeriodicStream],
    assignment: Sequence[int],
    alive: Sequence[bool],
    bandwidths_mbps: Sequence[float],
) -> list[int]:
    """Remap streams off dead servers, keeping survivors' placements.

    Emergency repair used between a server crash and the next full
    replan: streams already on a live server stay put (their zero-jitter
    grouping still holds); each orphaned stream moves to the live server
    with the smallest post-move bit-rate load per unit bandwidth,
    heaviest orphans first.  The result generally violates Algorithm 1's
    harmonic grouping — it is a stopgap, not a schedule — but every
    stream lands on a live server.

    Raises ``ValueError`` if no server is alive.
    """
    bw = check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
    alive = [bool(a) for a in alive]
    if len(alive) != bw.size:
        raise ValueError(f"alive has {len(alive)} entries for {bw.size} servers")
    if not any(alive):
        raise ValueError("no surviving server to reassign onto")
    if len(assignment) != len(streams):
        raise ValueError(
            f"{len(streams)} streams but {len(assignment)} assignment entries"
        )

    new_assignment = list(assignment)
    load = np.zeros(bw.size)  # bits/s already committed per server
    orphans: list[int] = []
    for i, (s, q) in enumerate(zip(streams, assignment)):
        if q == -1:
            continue
        if not (0 <= q < bw.size):
            raise ValueError(f"assignment {q} out of range for {bw.size} servers")
        if alive[q]:
            load[q] += s.bits_per_frame * s.fps
        else:
            orphans.append(i)

    orphans.sort(key=lambda i: -streams[i].bits_per_frame * streams[i].fps)
    live = [n for n in range(bw.size) if alive[n]]
    for i in orphans:
        rate = streams[i].bits_per_frame * streams[i].fps
        best = min(live, key=lambda n: (load[n] + rate) / (bw[n] * 1e6))
        new_assignment[i] = best
        load[best] += rate
    return new_assignment


def resolve_assignment(
    grouping: GroupingResult,
    bandwidths_mbps: Sequence[float],
    streams: Sequence[PeriodicStream],
) -> list[int]:
    """Per-stream server vector aligned with the caller's ``streams`` order."""
    bw = check_array_1d("bandwidths_mbps", bandwidths_mbps, min_len=1)
    server_of_group = solve_group_assignment(_group_rates(grouping), bw)
    return [server_of_group[grouping.group_of[s.stream_id]] for s in streams]
