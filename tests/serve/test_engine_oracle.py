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
  over every distinct period.

The planner must make the same decisions with bit-identical floats:
ranked lists, configs, group sums and minimum periods, eviction scores,
and the ``sig_hash`` sequence of a whole serve replay.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import EVAProblem
from repro.obs import telemetry
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

    def eviction_scores(self):
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
            sid: (benefit_all - float(benefit_without[i])) / self.utilization_of(sid)
            for i, sid in enumerate(sids)
        }

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
        for sid in order:
            entry = self.entries.get(sid)
            if entry is None:
                continue
            for r, s in self.rank_configs(entry.texture):
                if (r, s) == (entry.resolution, entry.fps):
                    break
                self.set_config_calls += 1
                if self.set_config(sid, r, s):
                    break
        return stats

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
            assert tex_fast == tex_ref
            assert fast.rank_configs(0.9) == ref.rank_configs(0.9)

    def test_large_population_solve_all(self):
        # M = 40 on N = 6: both passes under contention, ranked per stream.
        fast, ref = _pair(6, 7, n_streams=40)
        textures = _population(40, 7)
        assert fast.solve_all(textures) == ref.solve_all(textures)
        assert _state(fast) == _state(ref)
        for sid, entry in fast.entries.items():
            assert fast.rank_configs(entry.texture) == ref.rank_configs(entry.texture)
        assert _scores_bits(fast.eviction_scores()) == _scores_bits(
            ref.eviction_scores()
        )


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
