"""Tests for repro.obs.metrics: instruments, the rolling window, registry."""

import math
import random
import sys
import threading
import time

import pytest

from repro.obs import MetricsRegistry, RollingWindow
from repro.obs.metrics import (
    DECISION_WINDOW,
    DEFAULT_BUCKETS,
    percentile,
    sanitize_metric_name,
)


class TestNames:
    def test_valid_name_unchanged(self):
        assert sanitize_metric_name("serve_epochs_total") == "serve_epochs_total"

    def test_dots_become_underscores(self):
        assert sanitize_metric_name("serve.cache_hits") == "serve_cache_hits"

    def test_leading_digit_prefixed(self):
        name = sanitize_metric_name("3d.render")
        assert name.startswith("_")

    def test_idempotent(self):
        once = sanitize_metric_name("a.b-c d")
        assert sanitize_metric_name(once) == once


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


class TestCounterGauge:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        g = MetricsRegistry().gauge("depth")
        g.set(5)
        g.set(4)
        assert g.value == 4.0


class TestHistogram:
    def test_cumulative_buckets_end_at_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        assert h.cumulative_buckets() == [(0.1, 1), (1.0, 2), (math.inf, 3)]
        assert h.count == 3
        assert h.sum == pytest.approx(2.55)

    def test_boundary_value_lands_in_bucket(self):
        h = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)  # le is inclusive
        assert h.cumulative_buckets()[0] == (0.1, 1)

    def test_snapshot_is_buckets_count_sum(self):
        h = MetricsRegistry().histogram("lat")
        h.observe(0.002)
        snap = h.snapshot()
        assert set(snap) == {"type", "help", "count", "sum", "buckets"}
        assert snap["type"] == "histogram"
        assert snap["count"] == 1
        assert snap["buckets"][-1][0] == "+Inf"

    def test_rejects_empty_buckets(self):
        with pytest.raises(ValueError, match="bucket"):
            MetricsRegistry().histogram("lat", buckets=())


class TestRegistry:
    def test_namespace_prefix(self):
        reg = MetricsRegistry(namespace="repro")
        c = reg.counter("epochs_total")
        assert c.name == "repro_epochs_total"
        # Already-prefixed names are not double-prefixed.
        assert reg.counter("repro_epochs_total") is c

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_contains_and_len(self):
        reg = MetricsRegistry()
        reg.counter("a")
        assert "a" in reg
        assert len(reg) == 1

    def test_collect_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        assert [n for n, _ in reg.collect()] == ["repro_aa", "repro_zz"]

    def test_to_dict_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(0.01)
        json.dumps(reg.to_dict())  # must not raise

    def test_default_window_shape(self):
        h = MetricsRegistry().histogram("h")
        assert h.buckets == tuple(sorted(DEFAULT_BUCKETS))
        assert DECISION_WINDOW == 512


class TestThreadSafety:
    def test_concurrent_updates_sum_exactly(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        h = reg.histogram("lat")
        n_threads, n_iter = 8, 500

        def work():
            for _ in range(n_iter):
                c.inc()
                h.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert c.value == n_threads * n_iter
        assert h.count == n_threads * n_iter
