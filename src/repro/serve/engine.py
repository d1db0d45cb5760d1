"""Incremental planning engine for the serve loop.

A batch optimizer answers "what is the best decision for this problem";
the serve loop needs "how does the current decision change when one
stream joins".  Re-running Algorithm 1 end to end per event repeats its
O(M²) divisor-priority pass on every join and leave.
:class:`IncrementalPlanner` instead *maintains* the schedule:

* groups are :class:`repro.sched.grouping.ZeroJitterGroup` objects —
  the same Theorem-3 holder batch Algorithm 1 and ``exact_grouping``
  place through — so the admission check for one sub-stream is
  O(1) unless it lowers a group's minimum period;
* every knob pair's static terms (Eq. 2–4 contributions, processing
  time, split count, sub-stream period) are tabulated once per
  planner, and each stream's θ_bit per resolution once per stream, so
  scoring the candidates of a join is array arithmetic;
* per-stream outcome contributions (Eq. 2–4 terms) are kept as running
  sums, so the outcome vector after a delta costs O(sub-streams) for
  the latency term and O(1) for the rest;
* the group→server Hungarian solve reuses the memoized
  :func:`repro.sched.assignment.solve_group_assignment`, and the
  read-out (:meth:`IncrementalPlanner.placement`) and the eviction
  scores are elementwise over per-stream columns kept in id order, so
  a decision walks no stream in Python unless it is split, and a
  read-out whose inputs are bit-equal to the last one's is that one.

Only the ordering policy is the engine's own: joins are placed at their
benefit-ranked knob pair, first fit over the live groups.  A failed
insertion takes back what it placed, so the service can try
candidates best-first and fall back cleanly.  A join no knob can fit
is refused by one bound check (:meth:`IncrementalPlanner.admit`)
before any ranking or scan.  The full solve's upgrade pass asks
before it moves, a block of streams at a time
(:meth:`IncrementalPlanner._upgrade_pass`): one stacked evaluation
ranks the block, one proved bound
(:meth:`~repro.sched.grouping.FitBound.exclusions`) tells which knobs
fit nowhere, a non-mutating query (:meth:`IncrementalPlanner._landing`)
scans :class:`~repro.sched.grouping.GroupView` copies of the groups for
the others, a knob that lands is moved to where the query found room,
and misses cost only the float-only rollback
(:meth:`IncrementalPlanner._settle_misses` replays a run of them at
once).  Every sum, member order and period order ends as the detach →
place → re-attach round trip per knob would leave it.  The
engine/Algorithm-1 equivalence tests check the invariant with
:func:`repro.sched.theory.const2_satisfied`.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from repro.core.benefit import LOWER_IS_BETTER
from repro.core.problem import ConfigSpace, EVAProblem
from repro.obs import telemetry
from repro.outcomes.functions import OutcomeFunctions
from repro.pref.decision_maker import LinearL1Preference
from repro.sched.assignment import solve_group_assignment
from repro.sched.grouping import (
    FitBound,
    GroupView,
    InfeasibleScheduleError,
    ZeroJitterGroup,
    first_fit,
)
from repro.sched.streams import PeriodicStream, split_count

__all__ = ["IncrementalPlanner", "Placement", "approx_preference"]


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


def _round_trips(x: float, step: float, n: int, count: int) -> float:
    """``x`` after ``count`` rounds of n subtractions of ``step`` and n
    additions back, stopping early at a fixed point (which is exact)."""
    for _ in range(count):
        y = x
        for _ in range(n):
            y -= step
        for _ in range(n):
            y += step
        if y == x:
            break
        x = y
    return x


def _vacated_total(entry: "_Entry") -> float:
    """The ``total_p`` that ``remove`` of the entry's subs leaves their
    home group (all in one group): n subtractions, or 0.0 when they are
    all its members."""
    subs = entry.subs
    home = subs[0].group
    if len(home.members) == len(subs):
        return 0.0
    total_p = home.total_p
    for sub in subs:
        total_p -= sub.processing_time
    return total_p


def _score_sums(sums: tuple[float, ...], mean_bw: float) -> tuple[float, ...]:
    """What a ranking adds per objective, from :meth:`IncrementalPlanner._sums`:
    Σ(ptime + bits / mean_bw) and the Eq. 2–4 sums."""
    acc, net, com, eng, ptime, bits = sums
    return (ptime + bits / mean_bw, acc, net, com, eng)


def _swapped(sums: tuple[float, ...], entry: "_Entry", knob: "_Knob") -> tuple[float, ...]:
    """``sums`` after ``entry`` moves to ``knob``: the float steps of
    :meth:`IncrementalPlanner._commit` (out with -1.0, in with 1.0)."""
    acc, net, com, eng, ptime, bits = sums
    return ((acc + -1.0 * entry.acc) + 1.0 * knob.acc,
            (net + -1.0 * entry.net) + 1.0 * knob.net,
            (com + -1.0 * entry.com) + 1.0 * knob.com,
            (eng + -1.0 * entry.eng) + 1.0 * knob.eng,
            (ptime + -1.0 * entry.ptime) + 1.0 * knob.ptime,
            (bits + -1.0 * entry.bits) + 1.0 * entry.frame_bits[knob.res])


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


class _Knob(NamedTuple):
    """One knob pair (r, s): its static Eq. 2–4 terms and Theorem-3 split.

    ``res`` indexes the planner's distinct resolutions (θ_bit's axis);
    ``k`` sub-streams of period ``period`` carry the stream.
    """

    r: float
    s: float
    res: int
    acc: float
    net: float
    com: float
    eng: float
    ptime: float
    k: int
    period: float

    @property
    def processing_time(self) -> float:
        """``ptime`` under the name :func:`first_fit` reads of a candidate."""
        return self.ptime


class _Entry:
    """Per-stream decision cache entry: config plus outcome contributions.

    ``frame_bits`` holds the stream's θ_bit per resolution and
    ``cand_bits`` the same values per candidate knob pair, computed
    once when the stream joins.
    """

    __slots__ = ("sid", "texture", "frame_bits", "cand_bits", "knob",
                 "resolution", "fps", "acc", "net", "com", "eng", "ptime",
                 "bits", "subs")

    def __init__(self, sid: int, texture: float, frame_bits: list[float],
                 cand_bits: np.ndarray) -> None:
        self.sid = sid
        self.texture = texture
        self.frame_bits = frame_bits
        self.cand_bits = cand_bits
        self.knob: _Knob | None = None
        self.resolution = self.fps = 0.0
        self.acc = self.net = self.com = self.eng = 0.0
        self.ptime = self.bits = 0.0
        self.subs: list[_Sub] = []

    def set_knob(self, knob: _Knob) -> None:
        self.knob = knob
        self.resolution, self.fps = knob.r, knob.s
        self.acc, self.net = knob.acc, knob.net
        self.com, self.eng = knob.com, knob.eng
        self.ptime = knob.ptime
        self.bits = self.frame_bits[knob.res]


class Placement(NamedTuple):
    """One read-out of the live schedule (:meth:`IncrementalPlanner.placement`).

    Per admitted stream, in id order: its resolution, fps and physical
    server(s), one per sub-stream (§3's decision triple), plus the
    schedule's Eq. 2–5 outcome vector (None with no stream admitted).
    ``server_col`` holds ``servers`` as one int64 array, a server per
    stream, when no stream is split (None otherwise): the column
    :meth:`repro.serve.service.ServeDecision.sig_hash` hashes.
    :meth:`IncrementalPlanner.placement` may hand the same read-out out
    again, so it is shared, not owned: its arrays are read-only, and
    its list and dict are not to be changed either.
    """

    stream_ids: list[int]
    resolutions: np.ndarray
    fps: np.ndarray
    servers: dict[int, tuple[int, ...]]
    outcome: np.ndarray | None
    server_col: np.ndarray | None = None


# Rows of :attr:`_Columns.num`, one float per admitted stream each.
_RES, _FPS, _PTIME, _BITS, _ACC, _NET, _COM, _ENG = range(8)

#: An entry's :attr:`_Columns.num` column, rows ``_RES`` … ``_ENG``.
_terms = attrgetter("resolution", "fps", "ptime", "bits", "acc", "net", "com", "eng")


class _Columns:
    """The admitted streams' read-out terms as columns, in id order.

    Column i of ``num`` holds stream ``sid[i]``'s resolution, fps,
    ptime, bits and Eq. 2–4 terms (rows ``_RES`` … ``_ENG``);
    ``slot[i]`` is the index in the planner's ``groups`` of an unsplit
    stream's sub-stream, -1 for a split stream.  Columns ``n`` onward
    are spare capacity, so a join costs one shift of the columns above
    it rather than a new array.
    """

    __slots__ = ("n", "sid", "slot", "num")

    def __init__(self, capacity: int = 64) -> None:
        self.n = 0
        self.sid = np.empty(capacity, dtype=np.int64)
        self.slot = np.empty(capacity, dtype=np.intp)
        self.num = np.empty((8, capacity))

    @classmethod
    def of(cls, planner: "IncrementalPlanner") -> "_Columns":
        """The columns of ``planner``'s entries, read off the entries in
        one pass: the floats :meth:`put` would write, one at a time."""
        entries = planner.entries
        n = len(entries)
        cols = cls(max(64, 2 * n))
        index = {id(g): i for i, g in enumerate(planner.groups)}
        sids = sorted(entries)
        ordered = [entries[sid] for sid in sids]
        cols.sid[:n] = sids
        cols.slot[:n] = [index[id(entry.subs[0].group)] if len(entry.subs) == 1 else -1
                         for entry in ordered]
        # reshape: with no entries the array is (0,), not (0, 8)
        cols.num[:, :n] = np.array([_terms(entry) for entry in ordered]).reshape(n, 8).T
        cols.n = n
        return cols

    def put(self, entry: _Entry, slot: int) -> None:
        """Write ``entry``'s column, inserting it if the stream is new."""
        n = self.n
        sid = entry.sid
        i = int(np.searchsorted(self.sid[:n], sid))
        if i == n or self.sid[i] != sid:
            if n == self.sid.size:
                self.sid = np.concatenate((self.sid, np.empty_like(self.sid)))
                self.slot = np.concatenate((self.slot, np.empty_like(self.slot)))
                self.num = np.concatenate((self.num, np.empty_like(self.num)), axis=1)
            if i < n:
                self.sid[i + 1:n + 1] = self.sid[i:n]
                self.slot[i + 1:n + 1] = self.slot[i:n]
                self.num[:, i + 1:n + 1] = self.num[:, i:n]
            self.sid[i] = sid
            self.n = n + 1
        self.slot[i] = slot
        self.num[:, i] = _terms(entry)

    def drop(self, sid: int) -> None:
        """Take stream ``sid``'s column out."""
        n = self.n
        i = int(np.searchsorted(self.sid[:n], sid))
        self.sid[i:n - 1] = self.sid[i + 1:n]
        self.slot[i:n - 1] = self.slot[i + 1:n]
        self.num[:, i:n - 1] = self.num[:, i + 1:n]
        self.n = n - 1


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
        # mean is taken in placement()).
        self.acc_sum = 0.0
        self.net_sum = 0.0
        self.com_sum = 0.0
        self.eng_sum = 0.0
        # Approximate-latency sums for candidate scoring (mean-bw model).
        self.ptime_sum = 0.0
        self.bits_sum = 0.0
        self._build_knob_table()

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

    def _build_knob_table(self) -> None:
        """Tabulate every knob pair's static terms once per planner.

        ``_candidates`` lists the pairs in config-space order, with
        their terms as arrays for :meth:`_ranked`; ``_knobs`` maps
        ``(r, s)`` to the same objects.
        """
        out = self.outcomes
        configs = self.config_space.all_configs()
        self._resolutions = list(dict.fromkeys(float(r) for r, _ in configs))
        res_index = {r: i for i, r in enumerate(self._resolutions)}
        self._knobs: dict[tuple[float, float], _Knob] = {}
        for r, s in configs:
            key = (float(r), float(s))
            if key in self._knobs:
                continue
            rv, sv = np.array([r]), np.array([s])
            ptime = out.profile.processing_time(key[0])
            k = split_count(key[1], ptime)
            self._knobs[key] = _Knob(
                key[0],
                key[1],
                res_index[key[0]],
                acc=float(out.accuracy_fn(rv, sv)[0]),
                net=out.encoder.bitrate(r, s) / 1e6,
                com=out.profile.flops_per_frame(r) * s,
                eng=(
                    out.gamma * out.encoder.bits_per_frame(r) * s
                    + out.profile.energy_per_frame(r) * s
                ),
                ptime=ptime,
                k=k,
                # 1 / (s / k), not k / s: the same float as the period of
                # a split_high_rate_streams sub-stream (fps = s / k).
                period=1.0 / (key[1] / k),
            )
        cands = [self._knobs[(float(r), float(s))] for r, s in configs]
        self._candidates = cands
        self._cand_res = np.array([c.res for c in cands], dtype=np.intp)
        self._cand_r = np.array([c.r for c in cands])
        self._cand_s = np.array([c.s for c in cands])
        self._cand_ptime = np.array([c.ptime for c in cands])
        self._cand_acc = np.array([c.acc for c in cands])
        self._cand_net = np.array([c.net for c in cands])
        self._cand_com = np.array([c.com for c in cands])
        self._cand_eng = np.array([c.eng for c in cands])
        self._lowest = self._knob(
            min(self.config_space.resolutions), min(self.config_space.fps_values)
        )

    @cached_property
    def _top(self) -> float:
        """The largest knob period or processing time, :class:`FitBound`'s ``top``.

        Derived on first use, so a planner pickled before it existed
        resumes.
        """
        return max(max(c.period, c.ptime) for c in self._candidates)

    @cached_property
    def _cand_period(self) -> np.ndarray:
        """Each candidate's sub-stream period, as ``_cand_ptime`` its
        processing time (derived on first use, as :attr:`_top`)."""
        return np.array([c.period for c in self._candidates])

    @cached_property
    def _cand_tail(self) -> np.ndarray:
        """Each candidate's Eq. 2–4 terms (acc, net, com, eng) as rows
        (derived on first use, as :attr:`_top`)."""
        return np.stack((self._cand_acc, self._cand_net, self._cand_com,
                         self._cand_eng), axis=1)

    @cached_property
    def _tie(self) -> np.ndarray | None:
        """The candidates in (r, s) order, the ranking's tie-break, or None
        when they are listed so (derived on first use, as :attr:`_top`)."""
        tie = np.lexsort((self._cand_s, self._cand_r))
        return None if np.array_equal(tie, np.arange(tie.size)) else tie

    @cached_property
    def _kmax(self) -> int:
        """The most sub-streams any knob splits into (derived on first use,
        as :attr:`_top`)."""
        return max(c.k for c in self._candidates)

    @cached_property
    def _first(self) -> tuple[dict[_Knob, int], np.ndarray]:
        """(knob → its first candidate index, that index per candidate).

        Names a knob by one index even when the config space lists a
        pair twice (derived on first use, as :attr:`_top`).
        """
        first: dict[_Knob, int] = {}
        for i, knob in enumerate(self._candidates):
            first.setdefault(knob, i)
        return first, np.array([first[c] for c in self._candidates])

    #: The entries' read-out columns (:class:`_Columns`), kept by
    #: :meth:`_place_entry`, :meth:`_drop_entry` and :meth:`server_down`.
    #: None until a read-out derives them (:meth:`_columns`) and again
    #: after :meth:`clear_streams`; a class-level default, so a planner
    #: pickled before the columns existed resumes.
    _cols: _Columns | None = None

    def _columns(self) -> _Columns:
        cols = self._cols
        if cols is None:
            cols = self._cols = _Columns.of(self)
        return cols

    def _knob(self, r: float, s: float) -> _Knob:
        knob = self._knobs.get((float(r), float(s)))
        if knob is None:
            raise ValueError(f"({r}, {s}) is not a knob pair of the config space")
        return knob

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

    def _mean_bw(self) -> float:
        """Mean effective uplink (bits/s) of the latency approximation."""
        eff = self.effective_bw()
        return float(np.mean(eff)) * 1e6 if eff.size else 1e6

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
        cols = self._cols
        if cols is not None:  # the groups after the victim move down one
            slot = cols.slot[:cols.n]
            slot[slot > victim] -= 1
        affected = sorted({sub.owner for sub in group.members})
        if priority_of is not None:
            affected.sort(key=lambda sid: (-priority_of(sid), sid))
        # Detach the dissolved group's subs; their owners re-place fully.
        for sub in list(group.members):
            sub.detach()
        lowest = self._lowest
        for sid in affected:
            entry = self.entries[sid]
            # Pull the stream's surviving subs out too: it re-places as
            # a unit so split counts stay consistent.
            for sub in entry.subs:
                sub.detach()
            entry.subs = []
            if self._place_entry(entry, entry.knob):
                stats["migrated"] += 1
                continue
            if entry.knob is not lowest and self._place_entry(entry, lowest):
                stats["degraded"] += 1
                continue
            self._drop_entry(entry)
            stats["evicted"].append(sid)
        return stats

    # -- stream mutations --------------------------------------------------
    def _new_entry(self, sid: int, texture: float, terms=None) -> _Entry:
        """An unplaced entry for a joining stream, θ_bit computed once.

        ``terms`` passes a cached :meth:`_texture_terms` of ``texture``.
        """
        if sid in self.entries:
            raise ValueError(f"stream {sid} already admitted")
        texture = float(texture)
        return _Entry(sid, texture, *(terms or self._texture_terms(texture)))

    def _texture_terms(self, texture: float) -> tuple[list[float], np.ndarray]:
        """(θ_bit per resolution, θ_bit per candidate) of one texture."""
        frame_bits = self._frame_bits(texture)
        return frame_bits, np.array(frame_bits)[self._cand_res]

    def _frame_bits(self, texture: float) -> list[float]:
        """θ_bit(r) per distinct resolution for one stream texture."""
        bits_per_frame = self.outcomes.encoder.bits_per_frame
        return [bits_per_frame(r, texture=texture) for r in self._resolutions]

    def _try_place(self, entry: _Entry, knob: _Knob, at: int = 0) -> list[_Sub] | None:
        """First-fit the stream's subs at ``knob``; all-or-nothing.

        The subs are identical, so sub j+1 resumes the scan at the
        group sub j landed in: every earlier group is unchanged and has
        already refused an identical sub.  ``at`` starts the first sub's
        scan, for a caller that knows the groups before it refuse it.
        Returns the placed subs, or ``None`` with every group as it was.
        """
        bits = entry.frame_bits[knob.res]
        subs: list[_Sub] = []
        for _ in range(knob.k):
            sub = _Sub(entry.sid, knob.period, knob.ptime, bits)
            at = first_fit(self.groups, sub, at)
            if at < 0:
                for placed in subs:
                    placed.detach()
                return None
            sub.attach(self.groups[at])
            subs.append(sub)
        return subs

    def _insert(self, entry: _Entry, knob: _Knob) -> bool:
        """Place and register a new entry; False (state unchanged) if unfit."""
        if not self._place_entry(entry, knob):
            return False
        self.entries[entry.sid] = entry
        return True

    def _place_entry(self, entry: _Entry, knob: _Knob) -> bool:
        """(Re)place a detached entry at ``knob``, swapping its sums."""
        subs = self._try_place(entry, knob)
        if subs is None:
            return False
        self._commit(entry, knob, subs)
        return True

    def _commit(self, entry: _Entry, knob: _Knob, subs: list[_Sub]) -> None:
        """Make ``subs``, placed at ``knob``, the entry's, swapping its sums.

        A new entry's terms are zero, and x + -0.0 == x, so it has none
        to take out.
        """
        if entry.knob is not None:
            self._sub_sums(entry, -1.0)
        entry.set_knob(knob)
        entry.subs = subs
        self._sub_sums(entry, 1.0)
        cols = self._cols
        if cols is not None:
            cols.put(entry, self.groups.index(subs[0].group) if knob.k == 1 else -1)

    def _sums(self) -> tuple[float, ...]:
        """The running sums, in :meth:`_sub_sums` order."""
        return (self.acc_sum, self.net_sum, self.com_sum, self.eng_sum,
                self.ptime_sum, self.bits_sum)

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
        if self._cols is not None:
            self._cols.drop(entry.sid)

    def add_stream(self, sid: int, texture: float, r: float, s: float) -> bool:
        """Admit a stream at config (r, s); False (state unchanged) if unfit."""
        knob = self._knob(r, s)
        return self._insert(self._new_entry(sid, texture), knob)

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
        return self._reconfigure(entry, self._knob(r, s))

    def _reconfigure(self, entry: _Entry, knob: _Knob) -> bool:
        """Move a registered entry to ``knob``; False after a rollback."""
        old_subs = entry.subs
        old_groups = [sub.group for sub in old_subs]
        for sub in old_subs:
            sub.detach()
        entry.subs = []
        if self._place_entry(entry, knob):
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
        frame_bits = np.array(self._frame_bits(float(texture)))
        ranked = self._ranked(frame_bits[self._cand_res], self._mean_bw())
        return [(k.r, k.s) for k in ranked]

    def _ranked(self, cand_bits: np.ndarray, mean_bw: float) -> list[_Knob]:
        """:meth:`rank_configs` over a stream's per-candidate θ_bit."""
        return [self._candidates[i] for i in self._order(cand_bits, mean_bw)]

    def _order(self, cand_bits: np.ndarray, mean_bw: float,
               sums: np.ndarray | None = None) -> np.ndarray:
        """Candidate indices best first, per row of ``cand_bits``.

        ``cand_bits`` is one stream's per-candidate θ_bit, or a (B, C)
        stack of B streams', scored in one evaluation.  Each row is
        scored against the live sums, or against its own row of
        ``sums`` ((B, 1, 5) :func:`_score_sums` rows).  Element-wise,
        each score is the scalar per-candidate formula with the same
        operands per operation (IEEE addition commutes), and
        :meth:`LinearL1Preference.value` sums each row's five terms
        alike whatever the leading shape, so a row's scores and order do
        not depend on the rows stacked with it.
        """
        if self.preference is None:
            raise ValueError("rank_configs needs a preference to score with")
        rows = np.empty((*cand_bits.shape, 5))
        lat = rows[..., 0]
        np.divide(cand_bits, mean_bw, out=lat)
        lat += self._cand_ptime
        rows[..., 1:] = self._cand_tail
        rows += _score_sums(self._sums(), mean_bw) if sums is None else sums
        rows[..., :2] /= len(self.entries) + 1
        scores = np.asarray(self.preference.value(rows), dtype=float)
        np.negative(scores, out=scores)
        # Stable by score over the candidates in (r, s) order: the order
        # of np.lexsort((s, r, -scores)).
        tie = self._tie
        if tie is None:
            return np.argsort(scores, kind="stable")
        return tie[np.argsort(scores[..., tie], kind="stable")]

    def admit(self, sid: int, texture: float) -> tuple[float, float] | None:
        """Admit a stream at the best config that fits (best-first greedy).

        Returns the chosen (r, s), or ``None`` if no knob pair fits —
        the admission-control reject the service counts.
        :meth:`FitBound.excludes_all` (every group fixed, none open) is
        asked of the whole knob table first: when it excludes every knob,
        no first-fit scan could place even one sub-stream, so the reject
        is proved and returned before the entry is built or the knobs
        ranked.  The scans it skips would have left every group as it
        was, floats and member order included.
        """
        if self.preference is None:
            raise ValueError("rank_configs needs a preference to score with")
        if sid in self.entries:
            raise ValueError(f"stream {sid} already admitted")
        if FitBound.excludes_all(self.groups, self._cand_period, self._cand_ptime,
                                 self._top):
            return None
        entry = self._new_entry(sid, texture)
        for knob in self._ranked(entry.cand_bits, self._mean_bw()):
            if self._insert(entry, knob):
                return (knob.r, knob.s)
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

    def eviction_scores(self, sids=None) -> dict[int, float]:
        """Marginal benefit per unit utilization of admitted streams.

        ``score[sid]`` estimates how much *system benefit per
        server-second of capacity* stream ``sid`` contributes: the
        benefit of the current schedule minus the benefit with the
        stream removed (running Eq. 2–4 sums, mean-bandwidth latency
        approximation — the same O(1) model :meth:`rank_configs`
        scores admissions with), divided by
        :meth:`utilization_of`.  The admission controller evicts
        lowest-score first, so shedding frees the most capacity per
        unit of benefit given up.  ``sids`` (admitted ids, default
        every stream) picks the streams to score; each score is an
        elementwise function of its stream's column, so it is the same
        float whichever others are scored with it.  Deterministic: pure
        arithmetic over the entry table, no RNG, no wall clock.
        """
        if self.preference is None:
            raise ValueError("eviction_scores needs a preference to score with")
        if not self.entries:
            return {}
        cols = self._columns()
        n = cols.n
        ids = cols.sid[:n]
        if sids is None:
            picked = np.arange(n)
        else:
            picked = np.searchsorted(ids, np.fromiter(sids, dtype=np.int64))
            if not picked.size:
                return {}
        mean_bw = self._mean_bw()
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
            sid = int(ids[0])
            return {sid: benefit_all / self.utilization_of(sid)}
        t = cols.num[:, picked]
        m = n - 1
        rows = np.empty((picked.size, 5))
        rows[:, 0] = (
            self.ptime_sum - t[_PTIME] + (self.bits_sum - t[_BITS]) / mean_bw
        ) / m
        rows[:, 1] = (self.acc_sum - t[_ACC]) / m
        rows[:, 2] = self.net_sum - t[_NET]
        rows[:, 3] = self.com_sum - t[_COM]
        rows[:, 4] = self.eng_sum - t[_ENG]
        benefit_without = np.asarray(self.preference.value(rows), dtype=float)
        scores = (benefit_all - benefit_without) / (t[_PTIME] * t[_FPS])
        return dict(zip(ids[picked].tolist(), scores.tolist()))

    # -- full solves -------------------------------------------------------
    def clear_streams(self) -> None:
        """Drop every stream (server state and caches survive)."""
        self.groups = [ZeroJitterGroup() for _ in range(self.n_alive)]
        self.entries = {}
        self._cols = None
        self.acc_sum = self.net_sum = self.com_sum = self.eng_sum = 0.0
        self.ptime_sum = self.bits_sum = 0.0

    #: θ_bit terms per texture of the last full solve's population
    #: (:meth:`_texture_terms` values), replaced whole by each solve so it
    #: holds only live textures.  A class-level empty default: a planner
    #: pickled before the cache existed starts with it empty.
    _terms_by_texture: Mapping[float, tuple] = MappingProxyType({})

    def solve_all(
        self, textures: dict[int, float], *, priority_of=None
    ) -> dict:
        """Greedy warm-up: admit-all at minimum config, then upgrade.

        Admission first (every stream at the cheapest knob pair —
        maximizes the admitted population), then one benefit-ordered
        upgrade pass per stream (first higher-ranked config that still
        fits zero-jitter wins, see :meth:`_upgrade_pass`).  Both passes walk
        streams in id order, or — with a ``priority_of`` callable —
        higher priority classes first, so when capacity runs out it is
        the low classes that get rejected or stay at min config.  The
        serve loop's "full solve" when no batch scheduler is attached.
        Each texture's θ_bit terms carry over from the previous solve.
        Returns ``{"admitted", "rejected"}`` stats.
        """
        if self.n_alive == 0:
            raise InfeasibleScheduleError("no alive server to solve onto")
        self.clear_streams()
        lowest = self._lowest
        order = sorted(textures)
        if priority_of is not None:
            order.sort(key=lambda sid: (-priority_of(sid), sid))
        stats = {"admitted": 0, "rejected": []}
        known = self._terms_by_texture
        kept: dict[float, tuple] = {}
        index = {id(group): i for i, group in enumerate(self.groups)}
        # Every admission places the lowest knob's identical subs, so a
        # group that refuses one never takes another (its sum only
        # grows): each scan starts where the last placed sub landed.
        at = 0
        entries = []
        for sid in order:
            texture = float(textures[sid])
            terms = kept.get(texture) or known.get(texture)
            if terms is None:
                terms = self._texture_terms(texture)
            kept[texture] = terms
            entry = self._new_entry(sid, texture, terms)
            subs = self._try_place(entry, lowest, at)
            if subs is None:
                stats["rejected"].append(sid)
                continue
            self._commit(entry, lowest, subs)
            self.entries[sid] = entry
            entries.append(entry)
            stats["admitted"] += 1
            at = index[id(subs[-1].group)]
        self._terms_by_texture = kept
        attempts = self._upgrade_pass(entries)
        telemetry.counter("serve.engine.solve_all_calls")
        telemetry.counter("serve.engine.upgrade_attempts", attempts)
        return stats

    def _upgrade_pass(self, entries: list[_Entry]) -> int:
        """Move each entry, in order, to the first better-ranked knob that fits.

        Each entry tries the knobs ranked above its own, best first
        (its :meth:`_ranked` list against the live sums), and takes the
        first that fits, as a :meth:`_reconfigure` per knob would; a
        miss leaves every float, member order and period order as that
        round trip would.  Returns the knobs tried.

        Entries go in blocks (:meth:`_upgrade_block`) whose rankings are
        one stacked evaluation.  A ranking needs the sums the entries
        before it leave, so a block guesses each entry's outcome as the
        last entry's: a miss, which leaves the sums alone, or a move to
        the same knob, whose swap of the sums is replayed ahead.  Blocks
        double in size while the guess holds and restart at one when it
        fails.  Guessing the move, not only the miss, lets the run of
        moves a solve opens with share rankings too, and a first knob
        that is the guessed one goes straight to the scan, with no
        verdicts read.
        """
        mean_bw = self._mean_bw()
        index = {id(group): i for i, group in enumerate(self.groups)}
        attempts = 0
        start, size, guess = 0, 1, None
        while start < len(entries):
            block = entries[start:start + size]
            done, tried, guess = self._upgrade_block(block, mean_bw, index, guess)
            attempts += tried
            start += done
            size = size * 2 if done == len(block) else 1
        return attempts

    def _upgrade_block(self, block: list[_Entry], mean_bw: float,
                       index: dict[int, int], guess: _Knob | None,
                       ) -> tuple[int, int, _Knob | None]:
        """Upgrade a run of entries ranked together, up to a failed guess.

        ``guess`` is the knob each entry is guessed to move to, or None
        for a miss.  Returns (entries done, knobs tried, the last one's
        outcome); fewer entries than the block's are done when one
        breaks the guess, as the rankings after it read the wrong sums.

        * One :meth:`_order` call ranks the block, each row against the
          sums the guessed outcomes before it leave (:func:`_swapped`
          replays :meth:`_commit`'s swap, so a held guess leaves the
          same floats).  The knobs ranked above an entry's own are the
          ones it tries, best first.
        * An entry's first knob is asked of :meth:`_landing` directly
          when it is the guessed one and no verdicts are at hand.
          Otherwise, and after that first knob misses, one
          :meth:`FitBound.exclusions` call tells, per entry and knob,
          whether the bound rules the knob out: for the rest of the
          block under a guessed miss, for the entry alone under a
          guessed move (a move drops the verdicts).  When it rules out
          every knob an entry has left, the entry's misses are replayed
          in bulk by :meth:`_settle_misses`; otherwise the knobs it
          leaves open are asked of :meth:`_landing`.  The first knob to
          land is moved to in the groups it named (:meth:`_move`).
        * Verdicts are kept while the block's settles go on re-rounding
          group sums.  A settle is a chain of additions and subtractions
          of processing times that cancel in real arithmetic: per missed
          attempt, n subtractions and n additions at home for an entry
          of n subs, plus one addition and one subtraction per sub the
          knob placed before missing (fewer than k, its sub count).
          Every intermediate is a group's sum of member processing
          times, give or take the entry's own and the placed subs, each
          placed one having passed :func:`first_fit`, so it is at most
          top + 2ε ≤ A/2 of the :class:`FitBound` proof, up to the drift
          itself; each step errs by at most uA, and the errors add.  A
          group's live total_p thus stays within s·uA of the value read,
          for s = 2(n + k) per attempt summed over the entries left.
          The open total an entry's scan reads is n more subtractions
          from its home's, in the verdict as in the scan, so it drifts
          by at most n·uA more.  The verdicts are taken with ``steps``
          at least that sum, which keeps each sound
          (:meth:`FitBound.exclusions`).
        * Three steps fall outside that count, and drop the verdicts: a
          move, a miss whose entry was alone in its home, which resets
          the sum to 0.0 and refills it, and the round trip per knob of
          an entry whose subs sit in more than one group (a full solve
          makes one only when the config space splits its lowest knob).
        """
        cands = self._candidates
        sums = self._sums()
        rows = []
        for entry in block:
            rows.append(_score_sums(sums, mean_bw))
            if guess is not None:
                sums = _swapped(sums, entry, guess)
        order = self._order(np.array([e.cand_bits for e in block]), mean_bw,
                            np.array(rows)[:, None, :])
        first, cand_first = self._first
        # Candidates by their knob's first index, so a knob listed twice
        # is found at its first place in the ranking, as ``is`` finds it.
        ranks = cand_first[order].tolist()
        counts = [row.index(first[e.knob]) for row, e in zip(ranks, block)]
        flags = views = None
        attempts = 0
        for b, entry in enumerate(block):
            count = counts[b]
            moved = None
            if count:
                ranked = ranks[b][:count]
                at_home, view = views[b] if flags else self._vacated(entry, index)
                if view is None:  # the round trip per knob
                    for i in ranked:
                        attempts += 1
                        if self._reconfigure(entry, cands[i]):
                            moved = cands[i]
                            break
                    flags = None
                else:
                    done = 0
                    if not flags and cands[ranked[0]] is guess:
                        done = 1
                        if self._try_ranked(entry, at_home, view, ranked[:1], [False], True):
                            moved, count = guess, 1
                    if moved is None and done < count:
                        if not flags:
                            # A guessed move drops the verdicts, so read them
                            # for this entry alone; a guessed miss keeps them.
                            stop = len(block) if guess is None else b + 1
                            views = [None] * b + [(at_home, view)] + [
                                self._vacated(e, index) for e in block[b + 1:stop]
                            ]
                            flags = self._exclusions(block, b, stop, counts, views)
                        row = flags[b]
                        excluded = [row[i] for i in ranked[done:]]
                        if all(excluded):
                            self._settle_misses(entry, len(excluded), not done)
                        else:
                            moved_at = self._try_ranked(entry, at_home, view, ranked[done:],
                                                        excluded, not done)
                            if moved_at:
                                moved = cands[ranked[done + moved_at - 1]]
                                count = done + moved_at
                    attempts += count
                    if moved is not None or view.pmin == math.inf:
                        flags = None  # a move, or a home emptied and refilled
            if moved is not guess:
                return b + 1, attempts, moved
        return len(block), attempts, guess

    def _vacated(self, entry: _Entry, index: dict[int, int]) -> tuple[int, GroupView | None]:
        """(home group index, the home as the entry's removal leaves it),
        or (-1, None) for an entry whose subs sit in several groups."""
        subs = entry.subs
        sub = subs[0]
        home = sub.group
        if any(s.group is not home for s in subs):
            return -1, None
        return index[id(home)], GroupView.without(home, sub.period, len(subs),
                                                  _vacated_total(entry))

    def _exclusions(self, block: list[_Entry], b: int, stop: int, counts: list[int],
                    views: list[tuple[int, GroupView | None] | None]) -> list[list[bool]]:
        """The bound's verdicts for entries b to ``stop``, per candidate,
        read off the vacated homes ``views`` (rows before b left empty);
        sound through the rest of the block until they are dropped."""
        rows = [(i, math.inf, math.inf) if view is None else (i, view.pmin, view.total_p)
                for i, view in views[b:stop]]
        n_max = max(len(entry.subs) for entry in block[b:stop])
        steps = 2 * (n_max + self._kmax) * (sum(counts[b:stop]) + 1)
        flags = FitBound.exclusions(self.groups, rows, self._cand_period,
                                    self._cand_ptime, self._top, steps)
        return [[]] * b + flags.tolist()

    def _try_ranked(self, entry: _Entry, at_home: int, view: GroupView,
                    ranked: list[int], excluded: list[bool], reorder: bool) -> int:
        """Try the ``ranked`` knobs in order; the 1-based place of the one
        moved to, or 0 when all miss.

        A run of knobs the bound ``excluded`` settles in bulk; any other
        is asked of :meth:`_landing` with the home open at its live sum.
        ``reorder`` is :meth:`_settle_miss`'s, for the first miss.
        """
        cands = self._candidates
        j = 0
        while j < len(excluded):
            if excluded[j]:
                run = j + 1
                while run < len(excluded) and excluded[run]:
                    run += 1
                self._settle_misses(entry, run - j, reorder)
                reorder = False
                j = run
                continue
            knob = cands[ranked[j]]
            j += 1
            landed = self._landing(knob, at_home, view.at(_vacated_total(entry)))
            if len(landed) == knob.k:
                self._move(entry, knob, landed)
                return j
            self._settle_miss(entry, knob, at_home, landed, reorder)
            reorder = False
        return 0

    def _move(self, entry: _Entry, knob: _Knob, landed: list[int]) -> None:
        """Re-place ``entry`` at ``knob`` in the groups :meth:`_landing` named.

        :meth:`_landing` ran :meth:`_try_place`'s scan over the groups
        as they are once the entry's subs are out, so detaching them and
        attaching the new subs there leaves what :meth:`_reconfigure`
        would, without scanning again.
        """
        for sub in entry.subs:
            sub.detach()
        bits = entry.frame_bits[knob.res]
        subs = []
        for i in landed:
            sub = _Sub(entry.sid, knob.period, knob.ptime, bits)
            sub.attach(self.groups[i])
            subs.append(sub)
        self._commit(entry, knob, subs)

    def _landing(self, knob: _Knob, at_home: int, view: GroupView) -> list[int]:
        """Group indices ``knob``'s subs would land in, with ``view`` at home.

        :meth:`_try_place`'s scan over the groups with the entry's home
        group replaced by ``view``: sub j+1 resumes where sub j landed,
        in that group's view with sub j added.  Fewer than ``knob.k``
        indices means a miss; the list then holds the subs placed
        before it.
        """
        scan = list(self.groups)
        scan[at_home] = view
        landed: list[int] = []
        at = 0
        for _ in range(knob.k):
            at = first_fit(scan, knob, at)
            if at < 0:
                break
            scan[at] = GroupView.plus(scan[at], knob.period, knob.ptime)
            landed.append(at)
        return landed

    def _settle_misses(self, entry: _Entry, count: int, reorder: bool) -> None:
        """Leave the groups as ``count`` missed round trips that placed no sub would.

        Each trip removes the entry's n subs from their home group and
        re-adds them: on ``total_p`` and ``rate`` alike, the map x →
        (x − p ⋯ − p) + p ⋯ + p, or a refill from 0.0 when the subs are
        the home's only members.  The map is iterated ``count`` times,
        stopping at a fixed point, after which every further trip
        leaves the same float.  See :meth:`_settle_miss` for
        ``reorder``.
        """
        subs = entry.subs
        own = subs[0]
        home = own.group
        n = len(subs)
        if len(home.members) == n:
            total_p = rate = 0.0
            for _ in range(n):
                total_p += own.processing_time
                rate += own.rate
            home.total_p, home.rate = total_p, rate
        else:
            home.total_p = _round_trips(home.total_p, own.processing_time, n, count)
            home.rate = _round_trips(home.rate, own.rate, n, count)
        if reorder:
            self._reorder(entry)

    def _settle_miss(self, entry: _Entry, knob: _Knob, at_home: int,
                     landed: list[int], reorder: bool) -> None:
        """Leave the groups as a missed :meth:`_reconfigure` to ``knob`` would.

        That round trip removes the entry's subs from their home group,
        adds the subs of ``landed``, removes those again and re-adds the
        entry's subs.  Per group that is a chain of float steps on
        ``total_p`` and ``rate`` (each reset to 0.0 when the group
        empties), replayed here in the same order.  Members and period
        keys come back in their order, except that the entry's subs
        move to the end of the home group's members, and their period
        key to the end of ``periods`` when no other member has it.
        ``pmin`` and ``aligned`` are a function of the key set (see
        :class:`GroupView`), which ends as it began, so they keep
        their values.  The moves to the end are idempotent, so the
        caller asks for them (``reorder``) on an entry's first miss only.
        """
        if not landed:
            self._settle_misses(entry, 1, reorder)
            return
        subs = entry.subs
        own = subs[0]
        n = len(subs)
        p = knob.ptime
        r = entry.frame_bits[knob.res] / knob.period  # a _Sub's rate
        for i in {at_home, *landed}:
            group = self.groups[i]
            back = n if i == at_home else 0
            m = landed.count(i)
            left = len(group.members) - back
            total_p, rate = group.total_p, group.rate
            for _ in range(back):
                total_p -= own.processing_time
                rate -= own.rate
            if back and not left:
                total_p = rate = 0.0
            for _ in range(m):
                total_p += p
                rate += r
            for _ in range(m):
                total_p -= p
                rate -= r
            if m and not left:
                total_p = rate = 0.0
            for _ in range(back):
                total_p += own.processing_time
                rate += own.rate
            group.total_p, group.rate = total_p, rate
        if reorder:
            self._reorder(entry)

    @staticmethod
    def _reorder(entry: _Entry) -> None:
        """Move the entry's subs, and their period key when no other
        member has it, to the end of their home group's order."""
        subs = entry.subs
        own = subs[0]
        home = own.group
        n = len(subs)
        if home.members[-n:] != subs:
            for sub in subs:
                home.members.remove(sub)
            home.members.extend(subs)
        if home.periods[own.period] == n:
            home.periods[own.period] = home.periods.pop(own.period)

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
        lowest = self._lowest
        stats = {"admitted": 0, "degraded": 0, "evicted": []}
        for sid in sorted(configs):
            knob = self._knob(*self.config_space.snap(*configs[sid]))
            entry = self._new_entry(sid, textures.get(sid, 1.0))
            if self._insert(entry, knob):
                stats["admitted"] += 1
            elif knob is not lowest and self._insert(entry, lowest):
                stats["degraded"] += 1
            else:
                stats["evicted"].append(sid)
        return stats

    # -- read-out ----------------------------------------------------------
    #: The last unsplit read-out and the key of the inputs it read
    #: (:meth:`placement`), or None.  A class-level default, so a
    #: planner pickled before the cache existed resumes.
    _readout: tuple[tuple, Placement] | None = None

    def placement(self) -> Placement:
        """The live schedule read once: each stream's triple and Eq. 2–5.

        One Hungarian group→server solve (the memoized
        :func:`repro.sched.assignment.solve_group_assignment`), then
        the entry columns (:class:`_Columns`) elementwise.  An unsplit
        stream's latency ``ptime + bits * inv_bw`` is the scalar form's
        float: its ``inv_bw`` loop adds one term to 0.0 and divides by
        1.  A split stream takes the scalar per-sub walk.  ``lat_total``
        is the sequential id-order sum (``np.cumsum``, never the
        compensated builtin ``sum``).  ``outcome`` is None when no
        stream is admitted.

        With no stream split, the last read-out is returned again, the
        same object, when every input it read is bit-equal to last
        time: the id-order columns (ids, group slots, resolution, fps,
        ptime and bits), the groups' rates (the Hungarian key),
        ``alive``, ``factor`` and the Eq. 2–4 sums.  The key lists the
        inputs rather than tracking the mutations, so whatever changed
        them (a join, a refused join that re-rounded a group's rate, a
        rollback, a drift) misses.  A read-out's arrays are read-only,
        as a reused one is shared by every decision that holds it.
        """
        cols = self._columns()
        n = cols.n
        if not n:
            return Placement([], np.empty(0), np.empty(0), {}, None, None)
        slot = cols.slot[:n]
        split = np.flatnonzero(slot < 0)
        key = None
        if not split.size:
            key = (cols.sid[:n].tobytes(), slot.tobytes(), cols.num[:_ACC, :n].tobytes(),
                   tuple(self.alive),
                   # the groups' rates, then factor and the Eq. 2–4 sums
                   np.array([*(g.rate for g in self.groups), *self.factor,
                             self.acc_sum, self.net_sum, self.com_sum,
                             self.eng_sum]).tobytes())
            last = self._readout
            if last is not None and last[0] == key:
                telemetry.counter("serve.engine.readout_reuses")
                return last[1]
        sids = sorted(self.entries)  # the entries' own keys, not new ints
        r = cols.num[_RES, :n].copy()
        s = cols.num[_FPS, :n].copy()
        rates = np.array([g.rate for g in self.groups])
        server_of_group = np.array(self.alive_indices())[
            list(solve_group_assignment(rates, self.effective_bw()))
        ]
        inv = 1.0 / (self.nominal_bw * np.array(self.factor) * 1e6)
        server = server_of_group[slot]
        lat = cols.num[_PTIME, :n] + cols.num[_BITS, :n] * inv[server]
        servers = dict(zip(sids, zip(server.tolist())))
        if split.size:
            server_of = dict(zip(self.groups, server_of_group.tolist()))
            for i in split.tolist():
                entry = self.entries[sids[i]]
                placed = tuple(server_of[sub.group] for sub in entry.subs)
                servers[sids[i]] = placed
                inv_bw = 0.0
                for j in placed:
                    inv_bw += inv[j]
                lat[i] = entry.ptime + entry.bits * inv_bw / len(placed)
            server = None
        outcome = np.array(
            [np.cumsum(lat)[-1] / n, self.acc_sum / n, self.net_sum,
             self.com_sum, self.eng_sum]
        )
        for array in (r, s, outcome, server):
            if array is not None:
                array.flags.writeable = False
        readout = Placement(sids, r, s, servers, outcome, server)
        self._readout = None if key is None else (key, readout)
        return readout

    def as_periodic_streams(self) -> tuple[list[PeriodicStream], list[int]]:
        """Flatten to (split streams, assignment) for the theory predicates."""
        servers = self.placement().servers
        streams: list[PeriodicStream] = []
        assignment: list[int] = []
        for sid, placed in servers.items():
            entry = self.entries[sid]
            for sub, server in zip(entry.subs, placed):
                streams.append(
                    PeriodicStream(
                        stream_id=len(streams),
                        fps=1.0 / sub.period,
                        resolution=entry.resolution,
                        processing_time=sub.processing_time,
                        bits_per_frame=sub.bits,
                        parent_id=sid,
                    )
                )
                assignment.append(server)
        return streams, assignment
