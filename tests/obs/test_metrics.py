"""Tests for repro.obs.metrics: the source registry, histogram, rolling window."""

import math
import random
import sys
import threading
import time

from repro.obs import MetricsRegistry, RollingWindow
from repro.obs.metrics import (
    DECISION_WINDOW,
    DEFAULT_BUCKETS,
    histogram_snapshot,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_single_value(self):
        assert percentile([4.0], 0.5) == 4.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0

    def test_extremes(self):
        vals = sorted(float(i) for i in range(100))
        assert percentile(vals, 0.0) == 0.0
        assert percentile(vals, 1.0) == 99.0


class TestRollingWindow:
    def test_sample_bound(self):
        w = RollingWindow()
        for v in range(DECISION_WINDOW + 5):
            w.observe(float(v))
        assert len(w) == DECISION_WINDOW
        assert w.sorted == [float(v) for v in range(5, DECISION_WINDOW + 5)]

    def test_percentiles_track_recent_samples_only(self):
        # The stale-reservoir regression: after a latency regime change,
        # windowed p95 must reflect the new regime, not run history.
        w = RollingWindow()
        for _ in range(1000):
            w.observe(0.001)
        for _ in range(DECISION_WINDOW):
            w.observe(1.0)
        assert w.percentile(0.95) == 1.0
        assert w.percentile(0.50) == 1.0

    def test_empty_window_reads_zero(self):
        w = RollingWindow()
        assert len(w) == 0
        assert w.percentile(0.5) == w.percentile(1.0) == 0.0

    def test_matches_sorted_tail_with_duplicates(self):
        """Past the bound, the window is exactly the last DECISION_WINDOW
        values: every percentile equals ``percentile`` over
        ``sorted(values)[-DECISION_WINDOW:]`` — duplicates included, so
        eviction must remove one copy of the expired value, not all."""
        rng = random.Random(7)
        values: list[float] = []
        w = RollingWindow()
        for i in range(3 * DECISION_WINDOW + 17):
            v = float(rng.randrange(40)) / 8  # heavy duplication
            values.append(v)
            w.observe(v)
            if i % 97 == 0 or i > 3 * DECISION_WINDOW:
                tail = sorted(values[-DECISION_WINDOW:])
                assert w.sorted == tail
                for q in (0.0, 0.5, 0.95, 0.99, 1.0):
                    assert w.percentile(q) == percentile(tail, q)
        assert len(w) == DECISION_WINDOW

    def test_concurrent_reader_never_sees_a_shrunk_window(self):
        """A scrape thread reads the window while the serve loop writes.

        ``percentile`` reads ``len`` and then indexes, so any moment at
        which the list holds fewer values than before lets a read index
        past the end.  The list below runs a reader check after every
        single list operation — every state a concurrent reader could
        see."""

        class ReaderList(list):
            def insert(self, i, v):
                super().insert(i, v)
                check(self)

            def __setitem__(self, k, v):
                super().__setitem__(k, v)
                check(self)

            def __delitem__(self, k):
                super().__delitem__(k)
                check(self)

        seen = []

        def check(values):
            assert len(values) == min(len(seen) + 1, DECISION_WINDOW)
            assert values == sorted(values)
            assert percentile(values, 1.0) == values[-1]
            seen.append(len(values))

        rng = random.Random(3)
        w = RollingWindow()
        w.sorted = ReaderList()
        for _ in range(3 * DECISION_WINDOW):
            w.observe(rng.random())
        assert len(seen) == 3 * DECISION_WINDOW  # one operation per observe
        assert len(w) == DECISION_WINDOW

    def test_threaded_reads_during_eviction(self):
        """Stress: one writer evicting, more readers than cores."""
        w = RollingWindow()
        for v in range(DECISION_WINDOW):
            w.observe(float(v))
        stop = threading.Event()
        errors = []

        def write():
            rng = random.Random(0)
            while not stop.is_set():
                w.observe(rng.random())

        def read():
            while not stop.is_set():
                try:
                    w.percentile(1.0)
                except IndexError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=write)]
        threads += [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(w) == DECISION_WINDOW


def _serve_run():
    """A small churn run with a registry attached before ``start()``."""
    import numpy as np

    from repro.core.problem import EVAProblem
    from repro.serve import SchedulerService, ServeEvent, approx_preference

    rng = np.random.default_rng(0)
    problem = EVAProblem(
        6,
        rng.choice([10.0, 15.0, 20.0, 25.0], size=4),
        textures=rng.uniform(0.7, 1.3, size=6),
    )
    svc = SchedulerService(problem, preference=approx_preference(problem))
    reg = MetricsRegistry()
    svc.attach_observability(metrics=reg)
    for i in range(6):
        svc.submit(
            [
                ServeEvent(time=i + 1.0, kind="stream_leave", target=i % 3),
                ServeEvent(time=i + 1.4, kind="stream_join", target=i % 3),
            ]
        )
    return svc, reg


def _counters(reg):
    return {
        name: snap["value"]
        for name, snap in reg.collect()
        if snap["type"] == "counter"
    }


class TestCounterGauge:
    def test_counter_monotonic(self):
        """The service's counters read a lifetime tally: across scrapes
        taken after every epoch, no counter ever goes backwards."""
        svc, reg = _serve_run()
        svc.start()
        last = _counters(reg)
        assert last["repro_serve_epochs_total"] == 1
        while svc.queue:
            svc.run(max_epochs=1)
            now = _counters(reg)
            assert set(now) == set(last)
            assert all(now[k] >= last[k] for k in now)
            last = now
        assert last["repro_serve_epochs_total"] == len(svc.decisions)

    def test_gauge_last_value_wins(self):
        """A source is read on every collect: a gauge shows its
        producer's value at scrape time, not a stored copy."""
        depth = {"value": 5}
        reg = MetricsRegistry()
        reg.add_source(
            lambda: {"depth": {"type": "gauge", "help": "", "value": depth["value"]}}
        )
        assert reg.to_dict()["depth"]["value"] == 5
        depth["value"] = 4
        assert reg.to_dict()["depth"]["value"] == 4


class TestHistogram:
    def test_cumulative_buckets_end_at_inf(self):
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        counts[0], counts[3], counts[-1] = 2, 1, 4
        snap = histogram_snapshot("", counts, 7, 2.5)
        bounds = [b for b, _ in snap["buckets"]]
        cumulative = [c for _, c in snap["buckets"]]
        assert bounds == [*DEFAULT_BUCKETS, "+Inf"]
        assert cumulative[:4] == [2, 2, 2, 3]
        assert cumulative[-2] == 3
        assert cumulative[-1] == snap["count"] == 7
        assert cumulative == sorted(cumulative)

    def test_boundary_value_lands_in_bucket(self):
        """``ServeStats`` counts a latency equal to a bound in that
        bucket (le is inclusive)."""
        from repro.serve import ServeStats

        stats = ServeStats()
        for latency in (DEFAULT_BUCKETS[1], math.nextafter(DEFAULT_BUCKETS[1], 1.0)):
            stats.push({"latency_s": latency})
        snap = histogram_snapshot(
            "", stats.latency_buckets, stats.epochs, stats.latency_sum
        )
        assert snap["buckets"][0] == [DEFAULT_BUCKETS[0], 0]
        assert snap["buckets"][1] == [DEFAULT_BUCKETS[1], 1]
        assert snap["buckets"][2] == [DEFAULT_BUCKETS[2], 2]

    def test_snapshot_is_buckets_count_sum(self):
        snap = histogram_snapshot("lat", [1] + [0] * len(DEFAULT_BUCKETS), 1, 0.0002)
        assert set(snap) == {"type", "help", "count", "sum", "buckets"}
        assert snap["type"] == "histogram"
        assert snap["count"] == 1
        assert snap["sum"] == 0.0002
        assert snap["buckets"][-1] == ["+Inf", 1]


class TestRegistry:
    def test_add_and_remove_source(self):
        reg = MetricsRegistry()

        def source():
            return {"a": {"type": "counter", "help": "", "value": 1.0}}

        reg.add_source(source)
        reg.add_source(source)  # idempotent
        assert reg.collect() == [("a", source()["a"])]
        reg.remove_source(source)
        reg.remove_source(source)  # idempotent
        assert reg.collect() == []

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.add_source(lambda: {"zz": {"type": "counter", "help": "", "value": 0}})
        reg.add_source(lambda: {"aa": {"type": "counter", "help": "", "value": 0}})
        assert [n for n, _ in reg.collect()] == ["aa", "zz"]

    def test_to_dict_json_safe(self):
        import json

        svc, reg = _serve_run()
        svc.run()
        doc = json.loads(json.dumps(reg.to_dict()))
        assert doc == reg.to_dict()
        assert {snap["type"] for snap in doc.values()} == {
            "counter", "gauge", "histogram"
        }

    def test_default_window_shape(self):
        assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))
        snap = histogram_snapshot("", [0] * (len(DEFAULT_BUCKETS) + 1), 0, 0.0)
        assert [b for b, _ in snap["buckets"][:-1]] == list(DEFAULT_BUCKETS)
        assert DECISION_WINDOW == 512


class TestThreadSafety:
    def test_concurrent_updates_sum_exactly(self):
        """Scrapes from more threads than cores while the serve loop
        updates its tally: every scrape's histogram is consistent (no
        finite bucket above ``+Inf``) and the final counts are exact."""
        svc, reg = _serve_run()
        stop = threading.Event()
        errors = []

        def scrape():
            while not stop.is_set():
                try:
                    hist = reg.to_dict()["repro_serve_decision_latency_seconds"]
                    cumulative = [c for _, c in hist["buckets"]]
                    assert cumulative == sorted(cumulative)
                    assert cumulative[-1] == hist["count"]
                except Exception as exc:  # noqa: BLE001 — collected for the assert
                    errors.append(exc)

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            svc.run()
        finally:
            stop.set()
            for th in threads:
                th.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        counts = _counters(reg)
        summary = svc.summary()
        assert counts["repro_serve_epochs_total"] == summary["epochs"]
        assert counts["repro_serve_cache_hits_total"] == summary["cache_hits"]
        assert counts["repro_serve_solved_total"] == summary["solved"]
