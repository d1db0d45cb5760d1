"""Incremental planning engine for the serve loop.

A batch optimizer answers "what is the best decision for this problem";
the serve loop needs "how does the current decision change when one
stream joins".  Re-running Algorithm 1 end to end per event repeats its
O(M²) divisor-priority pass on every join and leave.
:class:`IncrementalPlanner` instead *maintains* the schedule:

* groups are :class:`repro.sched.grouping.ZeroJitterGroup` objects —
  the same Theorem-3 holder batch Algorithm 1 and ``exact_grouping``
  place through — so the admission check for one sub-stream is
  O(distinct periods);
* per-stream outcome contributions (Eq. 2–4 terms) are kept as running
  sums, so the outcome vector after a delta costs O(sub-streams) for
  the latency term and O(1) for the rest;
* the group→server Hungarian solve reuses the memoized
  :func:`repro.sched.assignment.solve_group_assignment`.

Only the ordering policy is the engine's own: joins are placed at their
benefit-ranked knob pair, first fit over the live groups.  Every
mutation is transactional: a failed insertion rolls back to the
pre-call state, so the service can try candidates best-first and fall
back cleanly.  The engine/Algorithm-1 equivalence tests check the
invariant with :func:`repro.sched.theory.const2_satisfied`.
"""

from __future__ import annotations

import numpy as np

from repro.core.benefit import LOWER_IS_BETTER
from repro.core.problem import ConfigSpace, EVAProblem
from repro.outcomes.functions import OutcomeFunctions
from repro.pref.decision_maker import LinearL1Preference
from repro.sched.assignment import solve_group_assignment
from repro.sched.grouping import InfeasibleScheduleError, ZeroJitterGroup
from repro.sched.streams import PeriodicStream, split_count

__all__ = ["IncrementalPlanner", "approx_preference"]


def approx_preference(problem: EVAProblem, weights=None) -> LinearL1Preference:
    """Eq. 13 preference with analytically-derived normalization bounds.

    :func:`repro.core.benefit.make_preference` evaluates the two corner
    decisions through Algorithm 1, which is exact but O(M²) — minutes at
    M=1000.  All five objectives are monotone in the uniform corner
    configurations, so the bounds can be computed directly from the
    outcome functions; only the latency term needs the server
    assignment, which is approximated with the mean uplink bandwidth.
    The resulting preference is deterministic and construction is O(M).
    """
    space = problem.config_space
    out = problem.outcomes
    m = problem.n_streams
    mean_bw = float(np.mean(problem.bandwidths_mbps)) * 1e6
    mean_texture = float(np.mean(problem.textures))
    corners = []
    for r, s in (
        (min(space.resolutions), min(space.fps_values)),
        (max(space.resolutions), max(space.fps_values)),
    ):
        rv = np.full(m, float(r))
        sv = np.full(m, float(s))
        ltc = out.profile.processing_time(r) + out.encoder.bits_per_frame(
            r, texture=mean_texture
        ) / mean_bw
        corners.append(
            np.array(
                [
                    ltc,
                    out.accuracy(rv, sv),
                    out.network_mbps(rv, sv),
                    out.computation_tflops(rv, sv),
                    out.energy_watts(rv, sv),
                ]
            )
        )
    corners = np.stack(corners)
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    k = lo.size
    if weights is None:
        weights = np.ones(k)
    return LinearL1Preference(
        weights=np.asarray(weights, dtype=float),
        utopia=np.where(LOWER_IS_BETTER, lo, hi),
        lo=lo,
        hi=hi,
    )


class _Sub:
    """One (possibly split) sub-stream as placed in a group."""

    __slots__ = ("owner", "period", "processing_time", "bits", "rate", "group")

    def __init__(self, owner: int, period: float, processing_time: float,
                 bits: float) -> None:
        self.owner = owner
        self.period = period
        self.processing_time = processing_time
        self.bits = bits  # textured encoded bits per frame
        self.rate = bits / period  # bits/s
        self.group: ZeroJitterGroup | None = None

    def attach(self, group: ZeroJitterGroup) -> None:
        group.add(self)
        self.group = group

    def detach(self) -> None:
        """Leave the current group (no-op when unplaced)."""
        if self.group is not None:
            self.group.remove(self)
            self.group = None


class _Entry:
    """Per-stream decision cache entry: config plus outcome contributions."""

    __slots__ = ("sid", "texture", "resolution", "fps", "acc", "net", "com",
                 "eng", "ptime", "bits", "subs")

    def __init__(self, sid: int, texture: float, resolution: float, fps: float,
                 acc: float, net: float, com: float, eng: float,
                 ptime: float, bits: float) -> None:
        self.sid = sid
        self.texture = texture
        self.resolution = resolution
        self.fps = fps
        self.acc = acc
        self.net = net
        self.com = com
        self.eng = eng
        self.ptime = ptime
        self.bits = bits
        self.subs: list[_Sub] = []


class IncrementalPlanner:
    """Maintains an Algorithm-1-style schedule under deltas.

    Parameters
    ----------
    bandwidths_mbps:
        Nominal uplink bandwidth per server (defines N).
    config_space, outcomes:
        The decision knobs and Eq. 2–5 closed forms (defaults match
        :class:`~repro.core.problem.EVAProblem`).
    preference:
        Benefit function used by :meth:`rank_configs` to order
        candidate knob pairs for a joining stream.
    """

    def __init__(
        self,
        bandwidths_mbps,
        *,
        config_space: ConfigSpace | None = None,
        outcomes: OutcomeFunctions | None = None,
        preference: LinearL1Preference | None = None,
    ) -> None:
        self.nominal_bw = np.asarray(bandwidths_mbps, dtype=float)
        if self.nominal_bw.ndim != 1 or self.nominal_bw.size < 1:
            raise ValueError("bandwidths_mbps must be a non-empty 1-D sequence")
        self.config_space = config_space or ConfigSpace()
        self.outcomes = outcomes or OutcomeFunctions()
        self.preference = preference
        n = self.nominal_bw.size
        self.alive = [True] * n
        self.factor = [1.0] * n
        self.groups = [ZeroJitterGroup() for _ in range(n)]
        self.entries: dict[int, _Entry] = {}
        # Running Eq. 2–4 sums (acc is a sum of per-stream terms; the
        # mean is taken in outcome()).
        self.acc_sum = 0.0
        self.net_sum = 0.0
        self.com_sum = 0.0
        self.eng_sum = 0.0
        # Approximate-latency sums for candidate scoring (mean-bw model).
        self.ptime_sum = 0.0
        self.bits_sum = 0.0
        # Static per-candidate outcome terms (texture-independent).
        self._candidates = self._build_candidate_table()

    # -- construction ------------------------------------------------------
    @classmethod
    def for_problem(
        cls, problem: EVAProblem, *, preference: LinearL1Preference | None = None
    ) -> "IncrementalPlanner":
        """Planner over a problem's substrate (servers, knobs, outcomes)."""
        return cls(
            problem.bandwidths_mbps,
            config_space=problem.config_space,
            outcomes=problem.outcomes,
            preference=preference,
        )

    def _build_candidate_table(self) -> list[dict]:
        out = self.outcomes
        rows = []
        for r, s in self.config_space.all_configs():
            rv, sv = np.array([r]), np.array([s])
            rows.append(
                {
                    "r": float(r),
                    "s": float(s),
                    "acc": float(out.accuracy_fn(rv, sv)[0]),
                    "net": out.encoder.bitrate(r, s) / 1e6,
                    "com": out.profile.flops_per_frame(r) * s,
                    "eng": (
                        out.gamma * out.encoder.bits_per_frame(r) * s
                        + out.profile.energy_per_frame(r) * s
                    ),
                    "ptime": out.profile.processing_time(r),
                }
            )
        return rows

    # -- server state ------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return self.nominal_bw.size

    @property
    def n_alive(self) -> int:
        return sum(self.alive)

    @property
    def n_streams(self) -> int:
        return len(self.entries)

    def alive_indices(self) -> list[int]:
        return [j for j in range(self.n_servers) if self.alive[j]]

    def effective_bw(self) -> np.ndarray:
        """Per-alive-server effective bandwidth (Mbps), alive order."""
        return np.array(
            [self.nominal_bw[j] * self.factor[j] for j in self.alive_indices()]
        )

    def set_bandwidth_factor(self, server: int, factor: float) -> None:
        if not (0 <= server < self.n_servers):
            raise ValueError(f"server {server} out of range for {self.n_servers}")
        if not (0 < factor <= 1):
            raise ValueError(f"bandwidth factor must be in (0, 1], got {factor}")
        self.factor[server] = float(factor)

    def server_up(self, server: int) -> bool:
        """Mark a server alive again; returns False if already alive."""
        if not (0 <= server < self.n_servers):
            raise ValueError(f"server {server} out of range for {self.n_servers}")
        if self.alive[server]:
            return False
        self.alive[server] = True
        self.groups.append(ZeroJitterGroup())
        return True

    def server_down(self, server: int, *, priority_of=None) -> dict:
        """Mark a server dead and repair the schedule incrementally.

        One logical group must dissolve (groups ↔ alive servers are
        1:1).  The lightest group (least total processing time) is
        dissolved and its streams re-placed; a stream that no longer
        fits at its current config is degraded to the minimum config,
        and evicted if even that fails.  With ``priority_of`` (a
        ``sid -> int`` callable) higher-priority streams re-place
        first, so scarce capacity displaces the low classes — with the
        default (all priorities equal) the order is plain id order,
        bit-identical to the un-prioritized behavior.  Returns
        ``{"migrated", "degraded", "evicted"}`` stats.
        """
        if not (0 <= server < self.n_servers):
            raise ValueError(f"server {server} out of range for {self.n_servers}")
        stats = {"migrated": 0, "degraded": 0, "evicted": []}
        if not self.alive[server]:
            return stats
        self.alive[server] = False
        if self.n_alive == 0:
            self.alive[server] = True
            raise InfeasibleScheduleError("last alive server cannot go down")
        victim = min(
            range(len(self.groups)),
            key=lambda i: (self.groups[i].total_p, i),
        )
        group = self.groups.pop(victim)
        affected = sorted({sub.owner for sub in group.members})
        if priority_of is not None:
            affected.sort(key=lambda sid: (-priority_of(sid), sid))
        # Detach the dissolved group's subs; their owners re-place fully.
        for sub in list(group.members):
            sub.detach()
        min_r = min(self.config_space.resolutions)
        min_s = min(self.config_space.fps_values)
        for sid in affected:
            entry = self.entries[sid]
            # Pull the stream's surviving subs out too: it re-places as
            # a unit so split counts stay consistent.
            for sub in entry.subs:
                sub.detach()
            entry.subs = []
            if self._place_entry(entry, entry.resolution, entry.fps):
                stats["migrated"] += 1
                continue
            if (entry.resolution, entry.fps) != (min_r, min_s) and self._place_entry(
                entry, min_r, min_s
            ):
                stats["degraded"] += 1
                continue
            self._drop_entry(entry)
            stats["evicted"].append(sid)
        return stats

    # -- stream mutations --------------------------------------------------
    def _make_subs(self, sid: int, texture: float, r: float, s: float
                   ) -> tuple[list[_Sub], float, float]:
        """Split a (r, s) stream into its placeable subs (plus ptime, bits)."""
        ptime = self.outcomes.profile.processing_time(r)
        bits = self.outcomes.encoder.bits_per_frame(r, texture=texture)
        k = split_count(s, ptime)
        # 1 / (s / k), not k / s: the same float as the period of a
        # split_high_rate_streams sub-stream (fps = s / k).
        period = 1.0 / (s / k)
        return [_Sub(sid, period, ptime, bits) for _ in range(k)], ptime, bits

    def _try_place(self, subs: list[_Sub]) -> bool:
        """First-fit each sub into the groups; all-or-nothing."""
        placed: list[_Sub] = []
        for sub in subs:
            for group in self.groups:
                if group.fits(sub):
                    sub.attach(group)
                    placed.append(sub)
                    break
            else:
                for p in placed:
                    p.detach()
                return False
        return True

    def _place_entry(self, entry: _Entry, r: float, s: float) -> bool:
        """(Re)place an already-registered entry at config (r, s)."""
        subs, ptime, bits = self._make_subs(entry.sid, entry.texture, r, s)
        if not self._try_place(subs):
            return False
        self._sub_sums(entry, -1.0)
        cand = self._candidate_for(r, s)
        entry.resolution, entry.fps = float(r), float(s)
        entry.acc, entry.net = cand["acc"], cand["net"]
        entry.com, entry.eng = cand["com"], cand["eng"]
        entry.ptime, entry.bits = ptime, bits
        entry.subs = subs
        self._sub_sums(entry, 1.0)
        return True

    def _candidate_for(self, r: float, s: float) -> dict:
        for cand in self._candidates:
            if cand["r"] == float(r) and cand["s"] == float(s):
                return cand
        raise ValueError(f"({r}, {s}) is not a knob pair of the config space")

    def _sub_sums(self, entry: _Entry, sign: float) -> None:
        self.acc_sum += sign * entry.acc
        self.net_sum += sign * entry.net
        self.com_sum += sign * entry.com
        self.eng_sum += sign * entry.eng
        self.ptime_sum += sign * entry.ptime
        self.bits_sum += sign * entry.bits

    def _drop_entry(self, entry: _Entry) -> None:
        for sub in entry.subs:
            sub.detach()
        self._sub_sums(entry, -1.0)
        del self.entries[entry.sid]

    def add_stream(self, sid: int, texture: float, r: float, s: float) -> bool:
        """Admit a stream at config (r, s); False (state unchanged) if unfit."""
        if sid in self.entries:
            raise ValueError(f"stream {sid} already admitted")
        subs, ptime, bits = self._make_subs(sid, texture, r, s)
        if not self._try_place(subs):
            return False
        cand = self._candidate_for(r, s)
        entry = _Entry(
            sid, float(texture), float(r), float(s),
            cand["acc"], cand["net"], cand["com"], cand["eng"], ptime, bits,
        )
        entry.subs = subs
        self.entries[sid] = entry
        self._sub_sums(entry, 1.0)
        return True

    def remove_stream(self, sid: int) -> bool:
        """Remove a stream; False if unknown."""
        entry = self.entries.get(sid)
        if entry is None:
            return False
        self._drop_entry(entry)
        return True

    def set_config(self, sid: int, r: float, s: float) -> bool:
        """Re-place a stream at a new config; rolls back on failure."""
        entry = self.entries.get(sid)
        if entry is None:
            raise KeyError(f"stream {sid} not admitted")
        old_subs = entry.subs
        old_groups = [sub.group for sub in old_subs]
        for sub in old_subs:
            sub.detach()
        entry.subs = []
        if self._place_entry(entry, r, s):
            return True
        # Roll back: the old subs fit their old groups by construction.
        for sub, group in zip(old_subs, old_groups):
            sub.attach(group)
        entry.subs = old_subs
        return False

    # -- admission scoring -------------------------------------------------
    def rank_configs(self, texture: float) -> list[tuple[float, float]]:
        """Knob pairs ordered by marginal system benefit, best first.

        Scores each candidate (r, s) by the benefit of the post-admission
        outcome vector, using the running Eq. 2–4 sums plus a mean-
        bandwidth latency approximation (the exact latency needs the
        Hungarian assignment, which would defeat O(1) scoring).  Ties
        break toward the cheaper configuration for determinism.
        """
        if self.preference is None:
            raise ValueError("rank_configs needs a preference to score with")
        eff = self.effective_bw()
        mean_bw = float(np.mean(eff)) * 1e6 if eff.size else 1e6
        n = len(self.entries)
        rows = np.empty((len(self._candidates), 5))
        for i, cand in enumerate(self._candidates):
            bits = self.outcomes.encoder.bits_per_frame(cand["r"], texture=texture)
            lat = cand["ptime"] + bits / mean_bw
            rows[i, 0] = (self.ptime_sum + self.bits_sum / mean_bw + lat) / (n + 1)
            rows[i, 1] = (self.acc_sum + cand["acc"]) / (n + 1)
            rows[i, 2] = self.net_sum + cand["net"]
            rows[i, 3] = self.com_sum + cand["com"]
            rows[i, 4] = self.eng_sum + cand["eng"]
        scores = np.asarray(self.preference.value(rows), dtype=float)
        order = sorted(
            range(len(self._candidates)),
            key=lambda i: (
                -scores[i],
                self._candidates[i]["r"],
                self._candidates[i]["s"],
            ),
        )
        return [(self._candidates[i]["r"], self._candidates[i]["s"]) for i in order]

    def admit(self, sid: int, texture: float) -> tuple[float, float] | None:
        """Admit a stream at the best config that fits (best-first greedy).

        Returns the chosen (r, s), or ``None`` if no knob pair fits —
        the admission-control reject the service counts.
        """
        for r, s in self.rank_configs(texture):
            if self.add_stream(sid, texture, r, s):
                return (r, s)
        return None

    def utilization_of(self, sid: int) -> float:
        """A stream's processing-time demand in server-seconds per second.

        Each of the stream's ``k`` sub-streams runs at ``fps/k`` and
        costs ``ptime`` per frame, so the total is ``ptime * fps``
        regardless of the split — the resource denominator of
        :meth:`eviction_scores`.
        """
        entry = self.entries[sid]
        return entry.ptime * entry.fps

    def eviction_scores(self) -> dict[int, float]:
        """Marginal benefit per unit utilization for every stream.

        ``score[sid]`` estimates how much *system benefit per
        server-second of capacity* stream ``sid`` contributes: the
        benefit of the current schedule minus the benefit with the
        stream removed (running Eq. 2–4 sums, mean-bandwidth latency
        approximation — the same O(1) model :meth:`rank_configs`
        scores admissions with), divided by
        :meth:`utilization_of`.  The admission controller evicts
        lowest-score first, so shedding frees the most capacity per
        unit of benefit given up.  Deterministic: pure arithmetic over
        the entry table, no RNG, no wall clock.
        """
        if self.preference is None:
            raise ValueError("eviction_scores needs a preference to score with")
        if not self.entries:
            return {}
        eff = self.effective_bw()
        mean_bw = float(np.mean(eff)) * 1e6 if eff.size else 1e6
        sids = sorted(self.entries)
        n = len(sids)
        row_all = np.array(
            [
                (self.ptime_sum + self.bits_sum / mean_bw) / n,
                self.acc_sum / n,
                self.net_sum,
                self.com_sum,
                self.eng_sum,
            ]
        )
        benefit_all = float(self.preference.value(row_all))
        if n == 1:
            return {sids[0]: benefit_all / self.utilization_of(sids[0])}
        rows = np.empty((n, 5))
        for i, sid in enumerate(sids):
            e = self.entries[sid]
            m = n - 1
            rows[i, 0] = (
                self.ptime_sum - e.ptime + (self.bits_sum - e.bits) / mean_bw
            ) / m
            rows[i, 1] = (self.acc_sum - e.acc) / m
            rows[i, 2] = self.net_sum - e.net
            rows[i, 3] = self.com_sum - e.com
            rows[i, 4] = self.eng_sum - e.eng
        benefit_without = np.asarray(self.preference.value(rows), dtype=float)
        return {
            sid: (benefit_all - float(benefit_without[i]))
            / self.utilization_of(sid)
            for i, sid in enumerate(sids)
        }

    # -- full solves -------------------------------------------------------
    def clear_streams(self) -> None:
        """Drop every stream (server state and caches survive)."""
        self.groups = [ZeroJitterGroup() for _ in range(self.n_alive)]
        self.entries = {}
        self.acc_sum = self.net_sum = self.com_sum = self.eng_sum = 0.0
        self.ptime_sum = self.bits_sum = 0.0

    def solve_all(
        self, textures: dict[int, float], *, priority_of=None
    ) -> dict:
        """Greedy warm-up: admit-all at minimum config, then upgrade.

        Admission first (every stream at the cheapest knob pair —
        maximizes the admitted population), then one benefit-ordered
        upgrade pass per stream (first higher-ranked config that still
        fits zero-jitter wins; :meth:`set_config` rolls back cleanly on
        misfit).  Both passes walk streams in id order, or — with a
        ``priority_of`` callable — higher priority classes first, so
        when capacity runs out it is the low classes that get rejected
        or stay at min config.  The serve loop's "full solve" when no
        batch scheduler is attached.  Returns
        ``{"admitted", "rejected"}`` stats.
        """
        if self.n_alive == 0:
            raise InfeasibleScheduleError("no alive server to solve onto")
        self.clear_streams()
        min_r = min(self.config_space.resolutions)
        min_s = min(self.config_space.fps_values)
        order = sorted(textures)
        if priority_of is not None:
            order.sort(key=lambda sid: (-priority_of(sid), sid))
        stats = {"admitted": 0, "rejected": []}
        for sid in order:
            if self.add_stream(sid, textures[sid], min_r, min_s):
                stats["admitted"] += 1
            else:
                stats["rejected"].append(sid)
        for sid in order:
            entry = self.entries.get(sid)
            if entry is None:
                continue  # rejected above
            for r, s in self.rank_configs(entry.texture):
                if (r, s) == (entry.resolution, entry.fps):
                    break  # already at the best feasible config
                if self.set_config(sid, r, s):
                    break
        return stats

    def rebuild(self, configs: dict[int, tuple[float, float]],
                textures: dict[int, float]) -> dict:
        """Seed the engine from a batch scheduler's decision.

        Streams whose assigned config cannot be embedded zero-jitter
        degrade to the minimum config; if even that fails they are
        evicted.  Returns ``{"admitted", "degraded", "evicted"}``.
        """
        if self.n_alive == 0:
            raise InfeasibleScheduleError("no alive server to rebuild onto")
        self.clear_streams()
        min_r = min(self.config_space.resolutions)
        min_s = min(self.config_space.fps_values)
        stats = {"admitted": 0, "degraded": 0, "evicted": []}
        for sid in sorted(configs):
            r, s = self.config_space.snap(*configs[sid])
            texture = textures.get(sid, 1.0)
            if self.add_stream(sid, texture, r, s):
                stats["admitted"] += 1
            elif (r, s) != (min_r, min_s) and self.add_stream(
                sid, texture, min_r, min_s
            ):
                stats["degraded"] += 1
            else:
                stats["evicted"].append(sid)
        return stats

    # -- outcome accounting ------------------------------------------------
    def assignment(self) -> dict[int, int]:
        """Memoized Hungarian map: group index → physical server index."""
        alive = self.alive_indices()
        rates = np.array([g.rate for g in self.groups])
        server_of_group = solve_group_assignment(rates, self.effective_bw())
        return {gi: alive[si] for gi, si in enumerate(server_of_group)}

    def outcome(self) -> np.ndarray:
        """Exact Eq. 2–5 outcome vector for the current schedule."""
        if not self.entries:
            raise ValueError("no admitted streams; outcome undefined")
        server_of = self.assignment()
        group_index = {id(g): i for i, g in enumerate(self.groups)}
        eff = {
            j: self.nominal_bw[j] * self.factor[j] * 1e6
            for j in self.alive_indices()
        }
        lat_total = 0.0
        for sid in sorted(self.entries):
            entry = self.entries[sid]
            inv_bw = 0.0
            for sub in entry.subs:
                j = server_of[group_index[id(sub.group)]]
                inv_bw += 1.0 / eff[j]
            lat_total += entry.ptime + entry.bits * inv_bw / len(entry.subs)
        n = len(self.entries)
        return np.array(
            [
                lat_total / n,
                self.acc_sum / n,
                self.net_sum,
                self.com_sum,
                self.eng_sum,
            ]
        )

    def stream_assignment(self) -> dict[int, tuple[int, ...]]:
        """Per-stream physical server(s), one per sub-stream, id-sorted."""
        server_of = self.assignment()
        group_index = {id(g): i for i, g in enumerate(self.groups)}
        return {
            sid: tuple(
                server_of[group_index[id(sub.group)]]
                for sub in self.entries[sid].subs
            )
            for sid in sorted(self.entries)
        }

    def decision_arrays(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """(sorted stream ids, resolutions, fps) of the current schedule."""
        sids = sorted(self.entries)
        r = np.array([self.entries[s].resolution for s in sids])
        s = np.array([self.entries[s].fps for s in sids])
        return sids, r, s

    def as_periodic_streams(self) -> tuple[list[PeriodicStream], list[int]]:
        """Flatten to (split streams, assignment) for the theory predicates."""
        server_of = self.assignment()
        group_index = {id(g): i for i, g in enumerate(self.groups)}
        streams: list[PeriodicStream] = []
        assignment: list[int] = []
        next_id = 0
        for sid in sorted(self.entries):
            entry = self.entries[sid]
            for sub in entry.subs:
                streams.append(
                    PeriodicStream(
                        stream_id=next_id,
                        fps=1.0 / sub.period,
                        resolution=entry.resolution,
                        processing_time=sub.processing_time,
                        bits_per_frame=sub.bits,
                        parent_id=sid,
                    )
                )
                assignment.append(server_of[group_index[id(sub.group)]])
                next_id += 1
        return streams, assignment
