"""AdmissionController: priorities, eviction ordering, shedding, rollback."""

import pickle

import numpy as np
import pytest

from repro.core.problem import EVAProblem
from repro.obs import telemetry
from repro.serve import (
    AdmissionController,
    AdmissionOutcome,
    IncrementalPlanner,
    approx_preference,
    parse_priority_map,
)


def _planner(n_streams=2, n_servers=2, seed=0, bw=None):
    rng = np.random.default_rng(seed)
    problem = EVAProblem(
        n_streams,
        bw if bw is not None else rng.choice([10.0, 15.0, 20.0], size=n_servers),
        textures=rng.uniform(0.7, 1.3, size=n_streams),
    )
    planner = IncrementalPlanner.for_problem(
        problem, preference=approx_preference(problem)
    )
    planner.solve_all({i: float(problem.textures[i]) for i in range(n_streams)})
    return planner


def _fill(planner, start_sid=100, texture=1.0, limit=200):
    """Admit streams until the planner refuses (saturate capacity)."""
    sid = start_sid
    while planner.admit(sid, texture) is not None and sid < start_sid + limit:
        sid += 1
    assert sid < start_sid + limit, "planner never saturated"
    return sid  # first sid that did NOT fit


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    telemetry.disable()
    telemetry.reset()


class TestPriorityMap:
    def test_parse_string(self):
        mapping, default = parse_priority_map("0=2, 7=1, default=3")
        assert mapping == {0: 2, 7: 1}
        assert default == 3

    def test_parse_mapping(self):
        mapping, default = parse_priority_map({"4": 9, "default": 1})
        assert mapping == {4: 9}
        assert default == 1

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad priority-map entry"):
            parse_priority_map("nonsense")

    def test_priority_of(self):
        ctrl = AdmissionController(priority_map={3: 5}, default_priority=1)
        assert ctrl.priority_of(3) == 5
        assert ctrl.priority_of(99) == 1


class TestValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"join_rate_per_epoch": 0.0},
            {"join_burst": 0.5, "join_rate_per_epoch": 1.0},
            {"max_queue_depth": -1},
            {"max_evictions_per_join": -1},
        ],
    )
    def test_bad_params(self, kw):
        with pytest.raises(ValueError):
            AdmissionController(**kw)


class TestPlainAdmission:
    def test_default_controller_matches_bare_planner(self):
        """No map, no bucket, no depth: admit iff planner.admit does."""
        a, b = _planner(seed=3), _planner(seed=3)
        ctrl = AdmissionController()
        sid = 100
        while True:
            direct = b.admit(sid, 1.0)
            out = ctrl.request_join(a, sid, 1.0)
            if direct is None:
                # No priorities -> nothing is ever evictable either.
                assert not out.admitted
                break
            assert out.admitted
            assert out.config == direct
            sid += 1
        assert sorted(a.entries) == sorted(b.entries)

    def test_min_config_admits_at_floor(self):
        planner = _planner()
        ctrl = AdmissionController()
        out = ctrl.request_join(planner, 50, 1.0, min_config=True)
        assert out.admitted
        r, s = out.config
        assert r == min(planner.config_space.resolutions)
        assert s == min(planner.config_space.fps_values)


class TestTokenBucket:
    def test_burst_then_shed(self):
        planner = _planner(n_servers=4, bw=[30.0] * 4)
        ctrl = AdmissionController(join_rate_per_epoch=1.0, join_burst=2.0)
        outs = [
            ctrl.request_join(planner, 100 + i, 1.0, epoch=5) for i in range(4)
        ]
        assert [o.action for o in outs] == [
            "admitted", "admitted", "shed", "shed",
        ]
        assert outs[2].reason == "token_bucket"

    def test_refill_over_epochs(self):
        planner = _planner(n_servers=4, bw=[30.0] * 4)
        ctrl = AdmissionController(join_rate_per_epoch=1.0, join_burst=1.0)
        assert ctrl.request_join(planner, 100, 1.0, epoch=0).admitted
        assert ctrl.request_join(planner, 101, 1.0, epoch=0).action == "shed"
        assert ctrl.request_join(planner, 102, 1.0, epoch=1).admitted

    def test_default_burst_is_twice_rate(self):
        ctrl = AdmissionController(join_rate_per_epoch=3.0)
        assert ctrl._bucket.burst == 6.0


class TestQueueDepthShedding:
    def test_sheds_over_depth(self):
        planner = _planner()
        ctrl = AdmissionController(max_queue_depth=10)
        out = ctrl.request_join(planner, 100, 1.0, queue_depth=11)
        assert out.action == "shed"
        assert out.reason == "queue_depth"
        assert ctrl.request_join(planner, 101, 1.0, queue_depth=10).admitted

    def test_shed_mode_overrides_depth(self):
        planner = _planner()
        ctrl = AdmissionController(max_queue_depth=1000)
        out = ctrl.request_join(planner, 100, 1.0, shed_mode=True)
        assert out.action == "shed"
        assert out.reason == "remediation"

    def test_protected_priority_bypasses_shedding(self):
        planner = _planner()
        ctrl = AdmissionController(
            priority_map={100: 5}, max_queue_depth=0, protect_priority=5
        )
        assert ctrl.request_join(planner, 100, 1.0, queue_depth=99).admitted
        assert (
            ctrl.request_join(planner, 101, 1.0, queue_depth=99).action
            == "shed"
        )


class TestEviction:
    def test_high_priority_evicts_lowest_score_victim(self):
        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner)
        scores = planner.eviction_scores()
        expected_victim = min(scores, key=lambda v: (scores[v], v))
        ctrl = AdmissionController(priority_map={joiner: 1})
        before = set(planner.entries)
        out = ctrl.request_join(planner, joiner, 1.0)
        assert out.admitted
        assert out.reason == "evicted_lower_priority"
        assert out.evicted[0] == expected_victim
        assert joiner in planner.entries
        assert set(out.evicted) <= before

    def test_never_evicts_equal_or_higher_class(self):
        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner)
        # Everyone at the same (default) priority: no victims exist.
        ctrl = AdmissionController()
        out = ctrl.request_join(planner, joiner, 1.0)
        assert out.action == "rejected"
        assert out.reason == "no_lower_priority"
        assert joiner not in planner.entries

    def test_eviction_respects_class_order(self):
        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner)
        resident = sorted(planner.entries)
        # Half the residents are class 1, half class 0; a class-2 joiner
        # must consume class-0 victims before touching class 1.
        pmap = {sid: (1 if i % 2 else 0) for i, sid in enumerate(resident)}
        pmap[joiner] = 2
        ctrl = AdmissionController(priority_map=pmap)
        out = ctrl.request_join(planner, joiner, 1.0)
        assert out.admitted
        classes = [pmap[v] for v in out.evicted]
        assert classes == sorted(classes), "victims not lowest-class-first"

    def test_zero_eviction_budget_never_removes(self):
        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner, texture=1.0)
        before = {
            sid: (e.resolution, e.fps) for sid, e in planner.entries.items()
        }
        ctrl = AdmissionController(
            priority_map={joiner: 1}, max_evictions_per_join=0
        )
        out = ctrl.request_join(planner, joiner, 1.0)
        assert out.action == "rejected"
        assert out.reason == "no_fit"
        after = {
            sid: (e.resolution, e.fps) for sid, e in planner.entries.items()
        }
        assert after == before

    def test_failed_eviction_restores_configs(self):
        """A joiner that never fits rolls every victim back."""

        class _BlockJoiner:
            """Planner proxy that refuses one sid (forces rollback)."""

            def __init__(self, inner, blocked):
                self._inner = inner
                self._blocked = blocked

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def admit(self, sid, texture):
                if sid == self._blocked:
                    return None
                return self._inner.admit(sid, texture)

            def add_stream(self, sid, texture, r, s):
                if sid == self._blocked:
                    return False
                return self._inner.add_stream(sid, texture, r, s)

        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner)
        before = {
            sid: (e.texture, e.resolution, e.fps)
            for sid, e in planner.entries.items()
        }
        ctrl = AdmissionController(
            priority_map={joiner: 9}, max_evictions_per_join=2
        )
        out = ctrl.request_join(_BlockJoiner(planner, joiner), joiner, 1.0)
        assert out.action == "rejected"
        assert out.reason == "eviction_budget"
        after = {
            sid: (e.texture, e.resolution, e.fps)
            for sid, e in planner.entries.items()
        }
        assert after == before
        assert out.dropped == []


class _FullScoreController(AdmissionController):
    """The eviction path as it was: score every stream, then filter and
    sort the whole fleet (the oracle for the victims and their order)."""

    def _admit_with_eviction(self, planner, sid, texture, prio, min_config):
        scores = planner.eviction_scores()
        victims = sorted(
            (v for v in scores if self.priority_of(v) < prio),
            key=lambda v: (self.priority_of(v), scores[v], v),
        )
        if not victims:
            return AdmissionOutcome(
                sid, "rejected", priority=prio, reason="no_lower_priority"
            )
        removed = []
        for vid in victims[: self.max_evictions_per_join]:
            entry = planner.entries[vid]
            removed.append((vid, entry.texture, entry.resolution, entry.fps))
            planner.remove_stream(vid)
            config = self._try_admit(planner, sid, texture, min_config)
            if config is not None:
                return AdmissionOutcome(
                    sid, "admitted", config, evicted=[v[0] for v in removed],
                    priority=prio, reason="evicted_lower_priority",
                )
        dropped = [
            vid for vid, tex, r, s in reversed(removed)
            if not planner.add_stream(vid, tex, r, s)
        ]
        return AdmissionOutcome(
            sid, "rejected", dropped=dropped, priority=prio, reason="eviction_budget"
        )


def _entries(planner):
    return {
        sid: (e.texture, e.resolution, e.fps, len(e.subs))
        for sid, e in planner.entries.items()
    }


class TestEvictionCandidates:
    def test_no_lower_class_rejects_without_scoring(self, monkeypatch):
        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner)
        before = _entries(planner)

        def never(*args, **kwargs):
            raise AssertionError("eviction_scores called")

        monkeypatch.setattr(planner, "eviction_scores", never)
        ctrl = AdmissionController(default_priority=1)
        out = ctrl.request_join(planner, joiner, 1.0)
        assert (out.action, out.reason) == ("rejected", "no_lower_priority")
        assert _entries(planner) == before

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_victims_and_order_equal_the_full_score_sort(self, seed, budget):
        planner = _planner(n_streams=6, n_servers=3, seed=seed)
        joiner = _fill(planner, texture=1.1)
        # Three classes below the joiner's, the strictly lower ones
        # interleaved with an equal class that must never be touched.
        pmap = {sid: sid % 3 for sid in planner.entries}
        pmap[joiner] = 2
        old = _FullScoreController(priority_map=pmap, max_evictions_per_join=budget)
        new = AdmissionController(priority_map=pmap, max_evictions_per_join=budget)
        twin = pickle.loads(pickle.dumps(planner))
        lower = sorted(v for v in planner.entries if pmap[v] < 2)
        scored = []
        score = planner.eviction_scores
        planner.eviction_scores = lambda sids: scored.append(sorted(sids)) or score(sids)
        got = new.request_join(planner, joiner, 1.1)
        want = old.request_join(twin, joiner, 1.1)
        assert got == want
        assert got.evicted  # the fleet was full: eviction ran
        assert scored == [lower]
        assert _entries(planner) == _entries(twin)
        assert planner.placement().servers == twin.placement().servers

    @pytest.mark.parametrize("seed", range(6))
    def test_lowest_class_refusal_equals_the_scan(self, seed):
        # Random maps over the fleet and the joiners, each with a class
        # below the default; joiners of every class, the lowest included.
        gen = np.random.default_rng(seed)
        planner = _planner(n_streams=6, n_servers=3, seed=seed)
        first = _fill(planner, texture=1.1)
        default = int(gen.integers(0, 3))
        sids = list(planner.entries) + list(range(first, first + 12))
        pmap = {sid: int(gen.integers(default - 1, default + 2))
                for sid in sids if gen.random() < 0.6}
        pmap[sids[0]] = default - 1
        pmap.update({sid: default - 1 for sid in range(first, first + 12, 3)})
        new = AdmissionController(priority_map=pmap, default_priority=default,
                                  max_evictions_per_join=int(gen.integers(1, 4)))
        old = _FullScoreController(priority_map=pmap, default_priority=default,
                                   max_evictions_per_join=new.max_evictions_per_join)
        twin = pickle.loads(pickle.dumps(planner))
        floor = min(default, *pmap.values())
        refused = evicted = 0
        for sid in range(first, first + 12):
            calls = []
            priority_of = new.priority_of
            new.priority_of = lambda v: calls.append(v) or priority_of(v)
            texture = float(gen.uniform(0.8, 1.3))
            got = new.request_join(planner, sid, texture)
            del new.priority_of
            want = old.request_join(twin, sid, texture)
            assert got == want
            assert _entries(planner) == _entries(twin)
            if got.priority == floor and not got.admitted:
                assert got.reason == "no_lower_priority"
                assert calls == [sid]  # the joiner's own class, no fleet scan
                refused += 1
            evicted += bool(got.evicted)
        assert planner.placement().servers == twin.placement().servers
        assert refused and evicted

    def test_missing_preference_still_raises(self):
        planner = _planner(n_streams=2, n_servers=2, bw=[10.0, 10.0])
        joiner = _fill(planner)
        resident = min(planner.entries)
        planner.preference = None
        ctrl = AdmissionController(priority_map={resident: 0, joiner: 2})
        with pytest.raises(ValueError, match="preference"):
            ctrl.request_join(planner, joiner, 1.0)
        with pytest.raises(ValueError, match="preference"):
            planner.admit(joiner, 1.0)


class TestEvictionScores:
    def test_scores_cover_all_streams(self):
        planner = _planner(n_streams=4, n_servers=3)
        scores = planner.eviction_scores()
        assert set(scores) == set(planner.entries)

    def test_empty_planner_scores_empty(self):
        planner = _planner()
        for sid in list(planner.entries):
            planner.remove_stream(sid)
        assert planner.eviction_scores() == {}

    def test_scores_deterministic(self):
        a = _planner(n_streams=4, n_servers=3, seed=7)
        b = _planner(n_streams=4, n_servers=3, seed=7)
        assert a.eviction_scores() == b.eviction_scores()

    def test_scores_require_preference(self):
        planner = _planner()
        planner.preference = None
        with pytest.raises(ValueError, match="preference"):
            planner.eviction_scores()

    def test_scores_divide_by_utilization(self):
        """Scores are per unit utilization: score * util is finite benefit."""
        planner = _planner(n_streams=3, n_servers=3)
        scores = planner.eviction_scores()
        for sid, score in scores.items():
            assert np.isfinite(score)
            assert np.isfinite(score * planner.utilization_of(sid))


class TestSnapshotRoundTrip:
    def test_snapshot_from_spec(self):
        ctrl = AdmissionController(
            priority_map={1: 2, 5: 1},
            default_priority=1,
            join_rate_per_epoch=2.0,
            join_burst=5.0,
            max_queue_depth=32,
            protect_priority=2,
            max_evictions_per_join=3,
        )
        clone = AdmissionController.from_spec(ctrl.snapshot())
        assert clone.snapshot() == ctrl.snapshot()
        assert clone.priority_of(5) == 1
        assert clone.priority_of(99) == 1

    def test_pickles(self):
        ctrl = AdmissionController(join_rate_per_epoch=1.0)
        planner = _planner()
        ctrl.request_join(planner, 100, 1.0, epoch=3)
        clone = pickle.loads(pickle.dumps(ctrl))
        assert clone._bucket.last_epoch == 3
