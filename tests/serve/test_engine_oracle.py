"""Differential tests: the serve planner against its straightforward form.

:class:`ReferencePlanner` keeps the planner as it was before the
per-knob tables, the vectorized ranking and the cached Theorem-3 check:

* every knob pair's terms found by a linear scan of dict rows;
* θ_bit recomputed for every candidate on every ranking, scored in a
  scalar loop and ordered with ``sorted``;
* sub-streams split anew on every placement, each first-fit
  scan starting at group 0;
* groups (:class:`ReferenceGroup`) keyed by rounded period, with
  ``pmin`` recomputed as ``min`` over every member and ``fits`` looping
  over every distinct period;
* the schedule read out in three passes (configs, per-stream servers,
  outcome), each solving the group→server assignment on its own;
* ``admit`` trying every ranked knob, with no whole-table bound, and
  eviction scores taken over the whole fleet.

The planner must make the same decisions with bit-identical floats:
ranked lists, configs, group sums and minimum periods, eviction scores,
the columnar :meth:`~repro.serve.engine.IncrementalPlanner.placement`
read-out, and the ``sig_hash`` sequence of a whole serve replay, whose
bytes also equal packing every assignment int with ``struct``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import ConfigSpace, EVAProblem
from repro.obs import telemetry
from repro.sched.assignment import solve_group_assignment
from repro.sched.grouping import InfeasibleScheduleError
from repro.sched.streams import split_count
from repro.serve import (
    AdmissionController,
    ChurnProfile,
    IncrementalPlanner,
    SchedulerService,
    approx_preference,
    generate_load,
)
from repro.serve import engine as engine_mod
from repro.serve.engine import Placement
from repro.serve import service as service_mod

_EPS = 1e-9


class ReferenceGroup:
    """The Theorem-3 group with a full rescan per check."""

    def __init__(self) -> None:
        self.members: list = []
        self.periods: dict[float, int] = {}  # rounded period -> count
        self.total_p = 0.0
        self.rate = 0.0
        self.pmin = math.inf

    def fits(self, candidate) -> bool:
        period = candidate.period
        pmin = min(self.pmin, period)
        if self.total_p + candidate.processing_time > pmin + _EPS:
            return False
        for q in self.periods:
            ratio = q / pmin
            if abs(ratio - round(ratio)) > _EPS:
                return False
        ratio = period / pmin
        return abs(ratio - round(ratio)) <= _EPS

    def add(self, member) -> None:
        key = round(member.period, 12)
        self.members.append(member)
        self.periods[key] = self.periods.get(key, 0) + 1
        self.total_p += member.processing_time
        self.rate += member.rate
        self.pmin = min(self.pmin, member.period)

    def remove(self, member) -> None:
        key = round(member.period, 12)
        self.members.remove(member)
        count = self.periods[key] - 1
        if count:
            self.periods[key] = count
        else:
            del self.periods[key]
        self.total_p -= member.processing_time
        self.rate -= member.rate
        if not self.members:
            self.total_p = 0.0
            self.rate = 0.0
            self.pmin = math.inf
        elif key == round(self.pmin, 12):
            self.pmin = min(m.period for m in self.members)


class _RefEntry:
    def __init__(self, sid, texture, resolution, fps, acc, net, com, eng,
                 ptime, bits) -> None:
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
        self.subs: list = []


class ReferencePlanner(IncrementalPlanner):
    """The planner's mutation and scoring paths in their scalar form.

    ``set_config_calls`` counts the upgrade attempts of every
    :meth:`solve_all`, the oracle for ``serve.engine.upgrade_attempts``.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.groups = [ReferenceGroup() for _ in range(self.n_servers)]
        self.set_config_calls = 0
        out = self.outcomes
        self._rows = []
        for r, s in self.config_space.all_configs():
            rv, sv = np.array([r]), np.array([s])
            self._rows.append(
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

    def server_up(self, server):
        if not (0 <= server < self.n_servers):
            raise ValueError(f"server {server} out of range for {self.n_servers}")
        if self.alive[server]:
            return False
        self.alive[server] = True
        self.groups.append(ReferenceGroup())
        return True

    def clear_streams(self):
        super().clear_streams()
        self.groups = [ReferenceGroup() for _ in range(self.n_alive)]

    def server_down(self, server, *, priority_of=None):
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
        for sub in list(group.members):
            sub.detach()
        min_r = min(self.config_space.resolutions)
        min_s = min(self.config_space.fps_values)
        for sid in affected:
            entry = self.entries[sid]
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

    def _make_subs(self, sid, texture, r, s):
        ptime = self.outcomes.profile.processing_time(r)
        bits = self.outcomes.encoder.bits_per_frame(r, texture=texture)
        k = split_count(s, ptime)
        period = 1.0 / (s / k)
        return [engine_mod._Sub(sid, period, ptime, bits) for _ in range(k)], ptime, bits

    def _try_place(self, subs):
        placed = []
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

    def _candidate_for(self, r, s):
        for cand in self._rows:
            if cand["r"] == float(r) and cand["s"] == float(s):
                return cand
        raise ValueError(f"({r}, {s}) is not a knob pair of the config space")

    def _place_entry(self, entry, r, s):
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

    def add_stream(self, sid, texture, r, s):
        if sid in self.entries:
            raise ValueError(f"stream {sid} already admitted")
        subs, ptime, bits = self._make_subs(sid, texture, r, s)
        if not self._try_place(subs):
            return False
        cand = self._candidate_for(r, s)
        entry = _RefEntry(
            sid, float(texture), float(r), float(s),
            cand["acc"], cand["net"], cand["com"], cand["eng"], ptime, bits,
        )
        entry.subs = subs
        self.entries[sid] = entry
        self._sub_sums(entry, 1.0)
        return True

    def set_config(self, sid, r, s):
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
        for sub, group in zip(old_subs, old_groups):
            sub.attach(group)
        entry.subs = old_subs
        return False

    def rank_configs(self, texture):
        if self.preference is None:
            raise ValueError("rank_configs needs a preference to score with")
        eff = self.effective_bw()
        mean_bw = float(np.mean(eff)) * 1e6 if eff.size else 1e6
        n = len(self.entries)
        rows = np.empty((len(self._rows), 5))
        for i, cand in enumerate(self._rows):
            bits = self.outcomes.encoder.bits_per_frame(cand["r"], texture=texture)
            lat = cand["ptime"] + bits / mean_bw
            rows[i, 0] = (self.ptime_sum + self.bits_sum / mean_bw + lat) / (n + 1)
            rows[i, 1] = (self.acc_sum + cand["acc"]) / (n + 1)
            rows[i, 2] = self.net_sum + cand["net"]
            rows[i, 3] = self.com_sum + cand["com"]
            rows[i, 4] = self.eng_sum + cand["eng"]
        scores = np.asarray(self.preference.value(rows), dtype=float)
        order = sorted(
            range(len(self._rows)),
            key=lambda i: (-scores[i], self._rows[i]["r"], self._rows[i]["s"]),
        )
        return [(self._rows[i]["r"], self._rows[i]["s"]) for i in order]

    def admit(self, sid, texture):
        for r, s in self.rank_configs(texture):
            if self.add_stream(sid, texture, r, s):
                return (r, s)
        return None

    def eviction_scores(self, picked=None):
        # Scores the whole fleet, then keeps the ``picked`` ones.
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
        scores = {
            sid: (benefit_all - float(benefit_without[i])) / self.utilization_of(sid)
            for i, sid in enumerate(sids)
        }
        return scores if picked is None else {sid: scores[sid] for sid in picked}

    def solve_all(self, textures, *, priority_of=None):
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
        self.upgrade_pass([sid for sid in order if sid in self.entries])
        return stats

    def upgrade_pass(self, sids):
        """Each stream in turn tries its knobs ranked above its own, best
        first, one ``set_config`` round trip per knob."""
        for sid in sids:
            entry = self.entries[sid]
            for r, s in self.rank_configs(entry.texture):
                if (r, s) == (entry.resolution, entry.fps):
                    break
                self.set_config_calls += 1
                if self.set_config(sid, r, s):
                    break

    def rebuild(self, configs, textures):
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

    # The read-out as three passes, each solving the assignment anew.
    def assignment(self):
        alive = self.alive_indices()
        rates = np.array([g.rate for g in self.groups])
        server_of_group = solve_group_assignment(rates, self.effective_bw())
        return {gi: alive[si] for gi, si in enumerate(server_of_group)}

    def outcome(self):
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
            [lat_total / n, self.acc_sum / n, self.net_sum, self.com_sum,
             self.eng_sum]
        )

    def stream_assignment(self):
        server_of = self.assignment()
        group_index = {id(g): i for i, g in enumerate(self.groups)}
        return {
            sid: tuple(
                server_of[group_index[id(sub.group)]]
                for sub in self.entries[sid].subs
            )
            for sid in sorted(self.entries)
        }

    def decision_arrays(self):
        sids = sorted(self.entries)
        r = np.array([self.entries[s].resolution for s in sids])
        s = np.array([self.entries[s].fps for s in sids])
        return sids, r, s

    def placement(self):
        sids, r, s = self.decision_arrays()
        if not sids:
            return Placement(sids, r, s, {}, None)
        return Placement(sids, r, s, self.stream_assignment(), self.outcome())


# -- helpers -----------------------------------------------------------------
def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _state(planner) -> tuple:
    """Everything a decision can depend on, floats as raw IEEE bytes."""
    groups = tuple(
        (
            _bits(g.total_p),
            _bits(g.rate),
            _bits(g.pmin),
            tuple((m.owner, _bits(m.period)) for m in g.members),
        )
        for g in planner.groups
    )
    entries = tuple(
        (
            sid,
            _bits(e.resolution),
            _bits(e.fps),
            _bits(e.ptime),
            _bits(e.bits),
            len(e.subs),
        )
        for sid, e in sorted(planner.entries.items())
    )
    sums = tuple(
        _bits(v)
        for v in (planner.acc_sum, planner.net_sum, planner.com_sum,
                  planner.eng_sum, planner.ptime_sum, planner.bits_sum)
    )
    return groups, entries, sums, tuple(planner.alive), tuple(planner.factor)


def _readout(planner) -> tuple:
    """The planner's :meth:`placement`, floats as raw IEEE bytes."""
    return _readout_of(planner.placement())


def _readout_of(p) -> tuple:
    return (
        p.stream_ids,
        tuple(_bits(v) for v in p.resolutions),
        tuple(_bits(v) for v in p.fps),
        p.servers,
        None if p.outcome is None else tuple(_bits(v) for v in p.outcome),
    )


def _pair(n_servers: int, seed: int, n_streams: int = 4):
    """The planner and its oracle over one seeded topology and preference."""
    rng = np.random.default_rng(seed)
    problem = EVAProblem(
        n_streams, rng.choice([5.0, 10.0, 15.0, 20.0, 25.0, 30.0], size=n_servers)
    )
    pref = approx_preference(problem)
    return (
        IncrementalPlanner.for_problem(problem, preference=pref),
        ReferencePlanner.for_problem(problem, preference=pref),
    )


def _population(n_streams: int, seed: int) -> dict[int, float]:
    gen = np.random.default_rng(seed)
    return {sid: float(t) for sid, t in enumerate(gen.uniform(0.6, 1.4, n_streams))}


def _scores_bits(scores: dict) -> dict:
    return {sid: _bits(v) for sid, v in scores.items()}


def _struct_sig_hash(d) -> str:
    """``ServeDecision.sig_hash`` with the assignment packed int by int."""
    h = hashlib.sha256()
    h.update(f"{d.mode}#{len(d.events)}|".encode("utf-8"))
    h.update("|".join(d.events).encode("utf-8"))
    ints = [d.epoch, int(d.full_solve), d.cache_hits, d.solved]
    for seq in (d.stream_ids, d.rejected, d.evicted, d.shed):
        ints.append(len(seq))
        ints.extend(seq)
    ints.extend(
        x
        for sid, servers in sorted(d.assignment.items())
        for x in (sid, len(servers), *servers)
    )
    h.update(struct.pack(f"<{len(ints)}q", *ints))
    h.update(np.asarray(d.resolutions, dtype="<f8").tobytes())
    h.update(np.asarray(d.fps, dtype="<f8").tobytes())
    if d.outcome is not None:
        h.update(np.asarray(d.outcome, dtype="<f8").tobytes())
    if d.benefit is not None:
        h.update(np.float64(d.benefit).tobytes())
    return h.hexdigest()[:16]


def _decision(planner, **overrides) -> service_mod.ServeDecision:
    """A decision record over ``planner``'s read-out, as the service makes."""
    p = planner.placement()
    fields = dict(
        epoch=3, time=3.0, events=["join:1", "leave:2"], stream_ids=p.stream_ids,
        resolutions=p.resolutions, fps=p.fps, assignment=p.servers,
        server_col=p.server_col, outcome=p.outcome,
        benefit=None if p.outcome is None else float(planner.preference.value(p.outcome)),
        full_solve=False, cache_hits=2, solved=1, rejected=[7], evicted=[], shed=[9, 11],
    )
    fields.update(overrides)
    return service_mod.ServeDecision(**fields)


def _scalar_view(planner) -> ReferencePlanner:
    """``planner``'s own state under the oracle's read-only methods (the
    three-pass read-out), sharing its attributes rather than copying them."""
    view = object.__new__(ReferencePlanner)
    view.__dict__ = planner.__dict__
    return view


# -- op-sequence differential suite -----------------------------------------
_TEXTURE = st.floats(0.5, 1.5, allow_nan=False)

_OPS = st.one_of(
    st.tuples(st.just("join"), st.integers(0, 39), _TEXTURE),
    st.tuples(st.just("join_min"), st.integers(0, 39), _TEXTURE),
    st.tuples(st.just("leave"), st.integers(0, 39)),
    st.tuples(st.just("drift"), st.integers(0, 5), st.floats(0.3, 1.0)),
    st.tuples(st.just("down"), st.integers(0, 5)),
    st.tuples(st.just("up"), st.integers(0, 5)),
    st.tuples(st.just("solve_all"), st.integers(0, 2)),
    st.tuples(st.just("evict_scores")),
    st.tuples(st.just("set_config"), st.integers(0, 39), st.integers(0, 35)),
)


def _apply(planner, op, textures):
    """One op; returns a comparable result (exceptions become their type)."""
    kind = op[0]
    try:
        if kind == "join":
            _, sid, tex = op
            if sid in planner.entries:
                return "skip"
            got = planner.admit(sid, tex)
            if got is not None:
                textures[sid] = tex
            return got
        if kind == "join_min":
            _, sid, tex = op
            if sid in planner.entries:
                return "skip"
            space = planner.config_space
            ok = planner.add_stream(
                sid, tex, min(space.resolutions), min(space.fps_values)
            )
            if ok:
                textures[sid] = tex
            return ok
        if kind == "leave":
            textures.pop(op[1], None)
            return planner.remove_stream(op[1])
        if kind == "drift":
            server = op[1] % planner.n_servers
            planner.set_bandwidth_factor(server, op[2])
            return None
        if kind == "down":
            server = op[1] % planner.n_servers
            stats = planner.server_down(server, priority_of=lambda sid: sid % 3)
            for sid in stats["evicted"]:
                textures.pop(sid, None)
            return stats
        if kind == "up":
            return planner.server_up(op[1] % planner.n_servers)
        if kind == "solve_all":
            prio = None if op[1] == 0 else (lambda sid: sid % (op[1] + 1))
            stats = planner.solve_all(dict(textures), priority_of=prio)
            for sid in stats["rejected"]:
                textures.pop(sid, None)
            return stats
        if kind == "evict_scores":
            return _scores_bits(planner.eviction_scores())
        if kind == "set_config":
            _, sid, c = op
            if sid not in planner.entries:
                return "skip"
            r, s = planner.config_space.all_configs()[c]
            return planner.set_config(sid, float(r), float(s))
    except (ValueError, InfeasibleScheduleError) as exc:
        return type(exc).__name__
    raise AssertionError(kind)


class TestOpSequences:
    @given(
        n_servers=st.integers(1, 6),
        seed=st.integers(0, 3),
        n_streams=st.sampled_from([4, 12, 40]),
        ops=st.lists(_OPS, max_size=40),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_decisions_and_bit_equal_state(
        self, n_servers, seed, n_streams, ops
    ):
        # n_streams sizes the preference's normalization bounds.
        fast, ref = _pair(n_servers, seed, n_streams=n_streams)
        tex_fast: dict[int, float] = {}
        tex_ref: dict[int, float] = {}
        for op in ops:
            assert _apply(fast, op, tex_fast) == _apply(ref, op, tex_ref), op
            assert _state(fast) == _state(ref), op
            assert _readout(fast) == _readout(ref), op
            assert tex_fast == tex_ref
            assert fast.rank_configs(0.9) == ref.rank_configs(0.9)

    def test_large_population_solve_all(self):
        # M = 40 on N = 6: both passes under contention, ranked per stream.
        fast, ref = _pair(6, 7, n_streams=40)
        textures = _population(40, 7)
        assert fast.solve_all(textures) == ref.solve_all(textures)
        assert _state(fast) == _state(ref)
        assert _readout(fast) == _readout(ref)
        for sid, entry in fast.entries.items():
            assert fast.rank_configs(entry.texture) == ref.rank_configs(entry.texture)
        assert _scores_bits(fast.eviction_scores()) == _scores_bits(
            ref.eviction_scores()
        )


class TestProvedReject:
    """``admit``'s whole-table bound against the oracle's unguarded scan."""

    @staticmethod
    def _spy_ranked(planner):
        calls = []
        ranked = planner._ranked
        planner._ranked = lambda *a: calls.append(1) or ranked(*a)
        return calls

    @pytest.mark.parametrize(("n_servers", "seed"), [(1, 0), (2, 1), (3, 2), (4, 3)])
    def test_filling_the_fleet_reaches_the_proved_reject(self, n_servers, seed):
        fast, ref = _pair(n_servers, seed, n_streams=12)
        calls = self._spy_ranked(fast)
        gen = np.random.default_rng(seed)
        proved = 0
        for sid in range(120):
            tex = float(gen.uniform(0.5, 1.5))
            before = len(calls)
            got = fast.admit(sid, tex)
            assert got == ref.admit(sid, tex), sid
            assert _state(fast) == _state(ref), sid
            if got is None and len(calls) == before:
                proved += 1
            if sid % 7 == 3 and sid - 3 in fast.entries:  # churn a little
                assert fast.remove_stream(sid - 3) and ref.remove_stream(sid - 3)
        assert _readout(fast) == _readout(ref)
        assert proved > 0
        # Full now: the bound rules out every knob and nothing is ranked.
        full = len(calls)
        assert fast.admit(999, 1.0) is ref.admit(999, 1.0) is None
        assert len(calls) == full
        assert _state(fast) == _state(ref)

    def test_a_bound_that_admits_still_scans_and_misses_on_alignment(self):
        # One group holding a 15 fps stream (period 1/15) with room to
        # spare: the bound excludes no 10 fps knob (period 0.1), but
        # 0.1 / (1/15) = 1.5, so the scan misses each of them and admit
        # falls through the ranking as the unguarded form does.  A
        # compute-only preference ranks the cheaper 10 fps knobs first.
        problem = EVAProblem(
            4, [30.0], config_space=ConfigSpace((300.0, 600.0), (10.0, 15.0))
        )
        pref = approx_preference(problem, weights=[0.0, 0.0, 0.0, 1.0, 0.0])
        fast = IncrementalPlanner.for_problem(problem, preference=pref)
        ref = ReferencePlanner.for_problem(problem, preference=pref)
        assert fast.add_stream(0, 1.0, 300.0, 15.0) and ref.add_stream(0, 1.0, 300.0, 15.0)
        group = fast.groups[0]
        # 10 fps knobs whose processing time fits under the group's minimum
        misaligned = [
            k for k in fast._candidates
            if k.s == 10.0 and k.k == 1 and group.total_p + k.ptime < group.pmin
        ]
        assert misaligned
        assert not engine_mod.FitBound.excludes_all(fast.groups, fast._cand_period,
                                                    fast._cand_ptime, fast._top)
        verdicts = engine_mod.FitBound.exclusions(
            fast.groups, [(-1, math.inf, math.inf)],
            np.array([k.period for k in misaligned]),
            np.array([k.ptime for k in misaligned]), fast._top, 0,
        )
        assert not verdicts.any()
        for knob in misaligned:
            assert not group.fits(knob)
        ranked = fast.rank_configs(1.0)
        calls = self._spy_ranked(fast)
        got = fast.admit(1, 1.0)
        assert got == ref.admit(1, 1.0)
        assert calls == [1]
        # the scan passed over a misaligned knob ranked above the landing
        assert got[1] != 10.0
        assert min(ranked.index((k.r, k.s)) for k in misaligned) < ranked.index(got)
        assert _state(fast) == _state(ref)
        assert _readout(fast) == _readout(ref)


class TestSplitReadout:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_a_split_stream_reads_out_alike(self, seed):
        # One stream at a time, split in 3 sub-streams over drifted
        # uplinks: the latency term is its per-sub average alone, which
        # the replays (no split streams) never pin down.
        fast, ref = _pair(6, seed)
        gen = np.random.default_rng(seed)
        for server in range(6):
            factor = float(gen.uniform(0.3, 1.0))
            fast.set_bandwidth_factor(server, factor)
            ref.set_bandwidth_factor(server, factor)
        r, s = next((r, s) for r, s in fast.config_space.all_configs()
                    if fast._knob(r, s).k == 3)
        for sid in range(16):
            tex = float(gen.uniform(0.6, 1.4))
            assert fast.add_stream(sid, tex, r, s) and ref.add_stream(sid, tex, r, s)
            assert len(fast.entries[sid].subs) == 3
            assert _readout(fast) == _readout(ref)
            assert fast.remove_stream(sid) and ref.remove_stream(sid)


class TestSigHashBytes:
    """The hashed ``(sid, 1, server)`` rows are the bytes of packing the
    assignment int by int, whatever the decision holds."""

    @staticmethod
    def _same(decision):
        want = _struct_sig_hash(decision)
        assert decision.sig_hash() == want
        assert dataclasses.replace(decision, server_col=None).sig_hash() == want

    def test_unsplit_empty_and_split_fleets(self):
        fast, _ = _pair(6, 0)
        self._same(_decision(fast))  # no stream
        assert fast.placement().server_col is None
        for sid in range(5):
            assert fast.add_stream(sid, 0.8 + 0.1 * sid, 600.0, 10.0)
        col = fast.placement().server_col
        assert col is not None and col.dtype == np.int64
        self._same(_decision(fast))
        self._same(_decision(fast, full_solve=True, rejected=[], shed=[], evicted=[3, 1]))
        r, s = next((r, s) for r, s in fast.config_space.all_configs()
                    if fast._knob(r, s).k == 3)
        assert fast.add_stream(40, 1.1, r, s)
        assert fast.placement().server_col is None
        self._same(_decision(fast))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_the_split_readout_fleet(self, seed):
        fast, _ = _pair(6, seed)
        gen = np.random.default_rng(seed)
        for server in range(6):
            fast.set_bandwidth_factor(server, float(gen.uniform(0.3, 1.0)))
        r, s = next((r, s) for r, s in fast.config_space.all_configs()
                    if fast._knob(r, s).k == 3)
        for sid in range(16):
            assert fast.add_stream(sid, float(gen.uniform(0.6, 1.4)), r, s)
            self._same(_decision(fast))
            assert fast.remove_stream(sid)


class TestReplayReadout:
    """``placement()`` on a churned serve replay against the scalar walk."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_decision_reads_out_as_the_scalar_walk(self, seed):
        rng = np.random.default_rng(seed)
        problem = EVAProblem(
            40, rng.choice([5.0, 10.0, 20.0, 30.0], size=6),
            textures=rng.uniform(0.7, 1.3, size=40),
        )
        log = generate_load(
            40, 6, seed=seed,
            profile=ChurnProfile(hours=0.05, arrivals_per_hour=1200,
                                 departures_per_hour=900, drifts_per_hour=60,
                                 flaps_per_hour=30, burst_start_s=60.0,
                                 burst_duration_s=60.0, burst_multiplier=8.0),
        )
        service = SchedulerService(
            problem, preference=approx_preference(problem), reoptimize_every=6,
            admission=AdmissionController(
                priority_map={sid: 2 for sid in range(0, 400, 5)},
                default_priority=1, join_rate_per_epoch=1.0,
            ),
        )
        planner = service.planner
        placement = planner.placement
        checked = []

        def compared():
            got = placement()
            want = ReferencePlanner.placement(_scalar_view(planner))
            assert _readout_of(got) == _readout_of(want)
            checked.append(got.outcome is not None)
            return got

        planner.placement = compared
        service.start()
        service.submit(log.events)
        service.run()
        assert sum(checked) > 20
        decisions = service.decisions
        assert any(d.evicted for d in decisions) and any(d.shed for d in decisions)
        for d in decisions:
            assert d.sig_hash() == _struct_sig_hash(d)


class TestRankTies:
    def test_equal_scores_order_by_resolution_then_fps(self):
        # All-zero weights score every candidate alike, so the order is
        # the tie-break alone: cheaper resolution first, then fps.
        problem = EVAProblem(4, [10.0, 20.0])
        pref = approx_preference(problem, weights=np.zeros(5))
        fast = IncrementalPlanner.for_problem(problem, preference=pref)
        ref = ReferencePlanner.for_problem(problem, preference=pref)
        ranked = fast.rank_configs(1.0)
        assert ranked == ref.rank_configs(1.0)
        assert ranked == sorted(ranked)
        assert fast.admit(0, 1.0) == ref.admit(0, 1.0) == ranked[0]


class TestUpgradeAttempts:
    @pytest.mark.parametrize(
        ("n_streams", "n_servers", "seed"), [(40, 6, 0), (40, 6, 1), (120, 16, 2)]
    )
    def test_counter_equals_the_oracles_set_config_calls(
        self, n_streams, n_servers, seed
    ):
        fast, ref = _pair(n_servers, seed, n_streams=n_streams)
        textures = _population(n_streams, seed)
        telemetry.reset()
        telemetry.enable()
        try:
            fast.solve_all(textures)
            fast.solve_all(textures)
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
            telemetry.reset()
        ref.solve_all(textures)
        ref.solve_all(textures)
        assert counters["serve.engine.solve_all_calls"] == 2
        assert ref.set_config_calls > 0
        assert counters["serve.engine.upgrade_attempts"] == ref.set_config_calls


class TestBlockedUpgradePass:
    """The full solve's upgrade pass in blocks against the per-entry loop.

    ``IncrementalPlanner.solve_all`` ranks runs of entries in one
    evaluation, reads the bound's verdicts for a block at once and
    replays runs of misses in bulk; the oracle tries one knob at a time
    through ``set_config``.  Each case is built so that the path it names
    is taken, and the spies below say so.
    """

    @staticmethod
    def _spy(planner):
        seen = {"blocks": [], "bulk": [], "scan_miss": [], "emptied": []}
        block = planner._upgrade_block
        settle = planner._settle_misses
        settle_one = planner._settle_miss
        walk = planner._try_ranked

        def spy_block(entries, mean_bw, index, guess):
            done, tried, last = block(entries, mean_bw, index, guess)
            seen["blocks"].append((len(entries), done, guess, last))
            return done, tried, last

        def spy_settle(entry, count, reorder):
            home = entry.subs[0].group
            seen["bulk"].append(count)
            if len(home.members) == len(entry.subs):
                seen["emptied"].append(entry.sid)
            settle(entry, count, reorder)

        def spy_settle_one(entry, knob, at_home, landed, reorder):
            home = entry.subs[0].group
            if len(home.members) == len(entry.subs):
                seen["emptied"].append(entry.sid)
            settle_one(entry, knob, at_home, landed, reorder)

        def spy_walk(entry, at_home, view, ranked, excluded, reorder):
            moved_at = walk(entry, at_home, view, ranked, excluded, reorder)
            if not moved_at and not all(excluded):
                seen["scan_miss"].append(entry.sid)
            return moved_at

        planner._upgrade_block = spy_block
        planner._settle_misses = spy_settle
        planner._settle_miss = spy_settle_one
        planner._try_ranked = spy_walk
        return seen

    @staticmethod
    def _solve_both(fast, ref, textures, priority_of=None):
        telemetry.reset()
        telemetry.enable()
        try:
            got = fast.solve_all(textures, priority_of=priority_of)
            attempts = telemetry.snapshot()["counters"]["serve.engine.upgrade_attempts"]
        finally:
            telemetry.disable()
            telemetry.reset()
        calls = ref.set_config_calls
        assert got == ref.solve_all(textures, priority_of=priority_of)
        assert attempts == ref.set_config_calls - calls > 0
        assert _state(fast) == _state(ref)
        assert _readout(fast) == _readout(ref)

    def test_a_missing_run_over_several_doubling_blocks(self):
        fast, ref = _pair(6, 0, n_streams=120)
        seen = self._spy(fast)
        self._solve_both(fast, ref, _population(120, 0))
        # guessed misses that held, in blocks of 1, 2, 4 and 8 in a row
        sizes = [size for size, done, guess, last in seen["blocks"]
                 if guess is None and last is None and done == size]
        assert any(sizes[i:i + 4] == [1, 2, 4, 8] for i in range(len(sizes)))
        assert max(seen["bulk"]) > 1

    def test_a_move_right_after_a_missing_run(self):
        fast, ref = _pair(6, 0, n_streams=120)
        seen = self._spy(fast)
        self._solve_both(fast, ref, _population(120, 0))
        blocks = seen["blocks"]
        # a guessed-miss block that some entries missed in before one
        # moved, after which the next block starts at one
        assert any(
            guess is None and last is not None and done > 1 and after[0] == 1
            for (size, done, guess, last), after in zip(blocks, blocks[1:])
        )

    def test_a_missing_run_entry_that_scans_and_misses(self):
        fast, ref = _pair(6, 0, n_streams=120)
        seen = self._spy(fast)
        self._solve_both(fast, ref, _population(120, 0))
        assert seen["scan_miss"]

    def test_a_home_group_that_empties(self):
        # Two streams on two servers: the first moves out of the shared
        # group, so the second is alone in it when its knobs miss.
        fast, ref = _pair(2, 0, n_streams=12)
        seen = self._spy(fast)
        self._solve_both(fast, ref, _population(2, 0))
        assert seen["emptied"]

    def test_a_home_whose_own_sub_holds_the_unique_pmin(self):
        # A full solve starts every stream at the longest period, so this
        # state is built by hand: stream 0's 0.1 s sub is its group's
        # only one at the minimum period.
        fast, ref = _pair(1, 0)
        for sid, (r, s) in enumerate([(900.0, 10.0), (300.0, 5.0), (300.0, 2.0)]):
            assert fast.add_stream(sid, 1.0, r, s) and ref.add_stream(sid, 1.0, r, s)
        home = fast.entries[0].subs[0].group
        assert home.pmin == fast.entries[0].subs[0].period
        assert home.periods[home.pmin] == 1
        calls = ref.set_config_calls
        attempts = fast._upgrade_pass([fast.entries[sid] for sid in (0, 1, 2)])
        ref.upgrade_pass([0, 1, 2])
        assert attempts == ref.set_config_calls - calls > 0
        assert _state(fast) == _state(ref)
        assert _readout(fast) == _readout(ref)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_priority_ordered_solve(self, seed):
        fast, ref = _pair(6, seed, n_streams=120)
        self._solve_both(fast, ref, _population(120, seed), priority_of=lambda sid: sid % 3)


class TestServiceReplay:
    @staticmethod
    def _sigs(monkeypatch, planner_cls, seed):
        monkeypatch.setattr(service_mod, "IncrementalPlanner", planner_cls)
        rng = np.random.default_rng(seed)
        problem = EVAProblem(
            12,
            rng.choice([5.0, 10.0, 20.0, 30.0], size=4),
            textures=rng.uniform(0.7, 1.3, size=12),
        )
        log = generate_load(
            12,
            4,
            profile=ChurnProfile(
                hours=0.05,
                arrivals_per_hour=600,
                departures_per_hour=400,
                drifts_per_hour=60,
                flaps_per_hour=30,
            ),
            seed=seed,
        )
        service = SchedulerService(
            problem,
            preference=approx_preference(problem),
            reoptimize_every=5,
            admission=AdmissionController(
                priority_map={sid: 2 for sid in range(0, 200, 4)},
                default_priority=1,
                join_rate_per_epoch=3.0,
            ),
        )
        assert type(service.planner) is planner_cls
        service.start()
        service.submit(log.events)
        service.run()
        return [d.sig_hash() for d in service.decisions]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identical_sig_hash_sequences(self, monkeypatch, seed):
        fast = self._sigs(monkeypatch, IncrementalPlanner, seed)
        ref = self._sigs(monkeypatch, ReferencePlanner, seed)
        assert len(fast) > 10
        assert fast == ref
