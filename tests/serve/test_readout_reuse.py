"""The reused read-out: ``placement()`` returns its last object only when
nothing it reads has changed.

:meth:`IncrementalPlanner.placement` keys its last read-out on the
inputs it reads (id-order columns, group rates, ``alive``, ``factor``,
the Eq. 2–4 sums).  Under churn that mixes joins, refused joins (split
knobs included), evictions with rollback, leaves, drifts, server flaps
and full solves, every read-out must equal the scalar three-pass
read-out of :class:`ReferencePlanner` bit for bit, and a returned
object may be the previous one only when those inputs are bit-equal to
what they were.  The columns built in one pass (``_Columns.of``) must
equal the columns written one ``put`` at a time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import EVAProblem
from repro.obs import telemetry
from repro.sched.grouping import InfeasibleScheduleError
from repro.serve import (
    AdmissionController,
    ChurnProfile,
    IncrementalPlanner,
    SchedulerService,
    approx_preference,
    generate_load,
)
from repro.serve.engine import _Columns
from tests.serve.test_engine_oracle import (
    ReferencePlanner,
    _bits,
    _readout_of,
    _scalar_view,
)


def _planner(n_servers: int, seed: int) -> IncrementalPlanner:
    rng = np.random.default_rng(seed)
    problem = EVAProblem(8, rng.choice([5.0, 10.0, 20.0, 30.0], size=n_servers))
    return IncrementalPlanner.for_problem(problem, preference=approx_preference(problem))


def _inputs(planner) -> tuple:
    """What the read-out reads, floats as raw IEEE bytes: per stream in id
    order its group index (None when split), resolution, fps, ptime and
    bits; the groups' rates; ``alive``; ``factor``; the Eq. 2–4 sums."""
    index = {id(g): i for i, g in enumerate(planner.groups)}
    streams = tuple(
        (sid,
         index[id(e.subs[0].group)] if len(e.subs) == 1 else None,
         _bits(e.resolution), _bits(e.fps), _bits(e.ptime), _bits(e.bits))
        for sid, e in sorted(planner.entries.items())
    )
    return (
        streams,
        tuple(_bits(g.rate) for g in planner.groups),
        tuple(planner.alive),
        tuple(_bits(f) for f in planner.factor),
        tuple(_bits(v) for v in (planner.acc_sum, planner.net_sum,
                                 planner.com_sum, planner.eng_sum)),
    )


def _put_by_put(planner) -> _Columns:
    """The columns as :meth:`_Columns.put` writes them, one stream at a time."""
    cols = _Columns(max(64, 2 * len(planner.entries)))
    index = {id(g): i for i, g in enumerate(planner.groups)}
    for sid in sorted(planner.entries):
        entry = planner.entries[sid]
        subs = entry.subs
        cols.put(entry, index[id(subs[0].group)] if len(subs) == 1 else -1)
    return cols


def _cols_bytes(cols: _Columns) -> tuple:
    n = cols.n
    return (n, cols.sid[:n].tobytes(), cols.slot[:n].tobytes(),
            np.ascontiguousarray(cols.num[:, :n]).tobytes())


_TEXTURE = st.floats(0.5, 1.5, allow_nan=False)

_OPS = st.one_of(
    st.tuples(st.just("join"), st.integers(0, 29), _TEXTURE),
    st.tuples(st.just("join_at"), st.integers(0, 29), _TEXTURE, st.integers(0, 35)),
    # twice: the probe is the op most likely to re-round a rate alone
    st.tuples(st.just("probe_split"), st.integers(0, 29), _TEXTURE, st.integers(0, 35)),
    st.tuples(st.just("probe_split"), st.integers(0, 29), _TEXTURE, st.integers(0, 35)),
    st.tuples(st.just("evict"), st.integers(0, 29), _TEXTURE, st.integers(1, 3)),
    st.tuples(st.just("leave"), st.integers(0, 29)),
    st.tuples(st.just("drift"), st.integers(0, 4), st.floats(0.3, 1.0)),
    st.tuples(st.just("down"), st.integers(0, 4)),
    st.tuples(st.just("up"), st.integers(0, 4)),
    st.tuples(st.just("solve_all")),
    st.tuples(st.just("read")),
)


def _apply(planner, op, textures) -> None:
    """One churn op on ``planner``; ``textures`` tracks the admitted streams."""
    kind = op[0]
    try:
        if kind == "join" and op[1] not in planner.entries:
            if planner.admit(op[1], op[2]) is not None:
                textures[op[1]] = op[2]
        elif kind == "join_at" and op[1] not in planner.entries:
            knob = planner._candidates[op[3]]
            if planner.add_stream(op[1], op[2], knob.r, knob.s):
                textures[op[1]] = op[2]
        elif kind == "probe_split" and op[1] not in planner.entries:
            # a split join taken back at once, so the fleet stays unsplit
            # and its read-out cached: a refused one whose first subs
            # landed leaves their groups' rates re-rounded (x + r - r)
            knobs = [k for k in planner._candidates if k.k > 1]
            knob = knobs[op[3] % len(knobs)]
            if planner.add_stream(op[1], op[2], knob.r, knob.s):
                planner.remove_stream(op[1])
        elif kind == "evict" and op[1] not in planner.entries:
            # class sid % 3 against a class-2 joiner; a small budget makes
            # the victims' rollback likely on a full fleet
            ctrl = AdmissionController(
                priority_map={**{v: v % 3 for v in range(30)}, op[1]: 2},
                max_evictions_per_join=op[3],
            )
            out = ctrl.request_join(planner, op[1], op[2])
            if out.admitted:
                textures[op[1]] = op[2]
            for vid in out.evicted + out.dropped:
                textures.pop(vid, None)
        elif kind == "leave":
            if planner.remove_stream(op[1]):
                textures.pop(op[1])
        elif kind == "drift":
            planner.set_bandwidth_factor(op[1] % planner.n_servers, op[2])
        elif kind == "down":
            stats = planner.server_down(op[1] % planner.n_servers)
            for sid in stats["evicted"]:
                textures.pop(sid)
        elif kind == "up":
            planner.server_up(op[1] % planner.n_servers)
        elif kind == "solve_all":
            for sid in planner.solve_all(dict(textures))["rejected"]:
                textures.pop(sid)
    except InfeasibleScheduleError:
        pass


class TestReuseUnderChurn:
    @given(
        n_servers=st.integers(1, 3),
        seed=st.integers(0, 3),
        ops=st.lists(_OPS, max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_every_readout_equals_the_scalar_one(self, n_servers, seed, ops):
        planner = _planner(n_servers, seed)
        textures: dict[int, float] = {}
        last = planner.placement()
        seen = _inputs(planner)
        for op in ops:
            _apply(planner, op, textures)
            got = planner.placement()
            want = ReferencePlanner.placement(_scalar_view(planner))
            assert _readout_of(got) == _readout_of(want), op
            now = _inputs(planner)
            if got is last:
                assert now == seen, op
            assert _cols_bytes(_Columns.of(planner)) == _cols_bytes(_put_by_put(planner))
            if planner._cols is not None:  # the columns kept through the churn
                assert _cols_bytes(planner._cols) == _cols_bytes(_put_by_put(planner))
            last, seen = got, now

    def test_unchanged_inputs_return_the_same_object(self):
        planner = _planner(3, 0)
        for sid in range(6):
            assert planner.add_stream(sid, 0.8 + 0.1 * sid, 300.0, 5.0)
        first = planner.placement()
        assert first.server_col is not None
        assert planner.placement() is first
        planner.set_bandwidth_factor(0, 1.0)  # the factor it already had
        assert planner.placement() is first
        planner.set_bandwidth_factor(1, 0.5)
        drifted = planner.placement()
        assert drifted is not first
        assert planner.placement() is drifted

    def test_a_split_fleet_reads_out_anew(self):
        planner = _planner(4, 1)
        r, s = next((r, s) for r, s in planner.config_space.all_configs()
                    if planner._knob(r, s).k == 3)
        assert planner.add_stream(0, 1.0, r, s)
        first = planner.placement()
        assert first.server_col is None
        again = planner.placement()
        assert again is not first
        assert _readout_of(again) == _readout_of(first)


class TestRefusedSplitJoin:
    """A refused two-sub join whose first sub landed re-rounds its group's
    rate on the way out (x + r - r != x), and the read-out follows it."""

    # (op, sid, texture, r, s) in order: "add" joins to stay, "addrm" joins
    # and leaves, "fail" is a refused join.  Found by a seeded search.
    OPS = [
        ("add", 0, 1.13, 300.0, 1.0), ("addrm", 1000, 0.69, 1600.0, 10.0),
        ("add", 1, 1.2, 1200.0, 2.0), ("fail", 1001, 0.94, 1200.0, 15.0),
        ("add", 2, 0.76, 2000.0, 2.0), ("fail", 1002, 1.02, 1600.0, 10.0),
        ("add", 3, 0.78, 300.0, 2.0), ("fail", 1003, 0.8, 2000.0, 5.0),
        ("add", 4, 1.19, 600.0, 5.0), ("fail", 1004, 1.39, 1200.0, 15.0),
    ]

    def test_the_readout_is_recomputed(self):
        problem = EVAProblem(4, [30.0, 20.0])
        planner = IncrementalPlanner.for_problem(
            problem, preference=approx_preference(problem)
        )
        for kind, sid, tex, r, s in self.OPS:
            assert planner.add_stream(sid, tex, r, s) is (kind != "fail")
            if kind == "addrm":
                assert planner.remove_stream(sid)
        before = planner.placement()
        assert before.server_col is not None  # no split stream: the cache is live
        assert planner.placement() is before
        rates = [_bits(g.rate) for g in planner.groups]
        assert planner._knob(1600.0, 10.0).k == 2
        assert not planner.add_stream(1005, 1.14, 1600.0, 10.0)
        assert [_bits(g.rate) for g in planner.groups] != rates
        after = planner.placement()
        assert after is not before
        want = ReferencePlanner.placement(_scalar_view(planner))
        assert _readout_of(after) == _readout_of(want)


class TestReadOnly:
    def test_the_shared_arrays_are_read_only(self):
        planner = _planner(3, 2)
        for sid in range(5):
            assert planner.add_stream(sid, 1.0, 300.0, 5.0)
        placed = planner.placement()
        for array in (placed.resolutions, placed.fps, placed.outcome, placed.server_col):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


class TestServiceReuse:
    def test_reused_readouts_are_scored_once_and_counted(self):
        rng = np.random.default_rng(3)
        problem = EVAProblem(30, rng.choice([5.0, 10.0, 20.0, 30.0], size=5),
                             textures=rng.uniform(0.7, 1.3, size=30))
        log = generate_load(
            30, 5, seed=3,
            profile=ChurnProfile(hours=0.05, arrivals_per_hour=1500,
                                 departures_per_hour=900, burst_start_s=40.0,
                                 burst_duration_s=60.0, burst_multiplier=8.0),
        )
        service = SchedulerService(
            problem, preference=approx_preference(problem), reoptimize_every=7,
            admission=AdmissionController(
                priority_map={sid: 2 for sid in range(0, 400, 10)},
                default_priority=1, join_rate_per_epoch=2.0,
            ),
        )
        value = service.preference.value
        scored = []

        class Counting:  # the service's preference; the planner keeps its own
            def value(self, y):
                scored.append(1)
                return value(y)

        service.preference = Counting()
        telemetry.reset()
        telemetry.enable()
        try:
            service.start()
            service.submit(log.events)
            service.run()
            reuses = telemetry.snapshot()["counters"].get("serve.engine.readout_reuses", 0)
        finally:
            telemetry.disable()
            telemetry.reset()
        decisions = service.decisions
        shared = sum(a.resolutions is b.resolutions for a, b in zip(decisions, decisions[1:]))
        assert reuses == shared > 0
        # each reused read-out's benefit is the one scored with it
        assert len(scored) == len(decisions) - reuses
        for d in decisions:
            assert d.benefit == (None if d.outcome is None else float(value(d.outcome)))
