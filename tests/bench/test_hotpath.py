"""Tests for the hot-path benchmark harness and its CLI/gate plumbing."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.hotpath import (
    _COUNTERS,
    BENCHMARKS,
    PROFILES,
    check_result,
    run_benchmark,
    run_benchmarks,
    save_bench,
)
from repro.bench.io import load_results
from repro.gp.regression import GPRegressor

_BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def _baseline(profile, name):
    return load_results(_BASELINES / profile / f"BENCH_{name}.json")


class TestHarness:
    def test_profiles_cover_every_benchmark(self):
        for profile, sizes in PROFILES.items():
            assert set(sizes) == set(BENCHMARKS), profile

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmark("nope", profile="smoke")
        with pytest.raises(ValueError, match="unknown profile"):
            run_benchmark("gp_update", profile="nope")

    def test_record_shape_and_counters(self):
        r = run_benchmark("gp_update", profile="smoke", seed=0)
        assert r["name"] == "gp_update"
        assert r["profile"] == "smoke"
        assert r["wall_s"] > 0
        assert r["iters_per_s"] == pytest.approx(r["iterations"] / r["wall_s"])
        assert "slow" not in r and "speedup" not in r
        # the timed run actually exercised the incremental path
        assert r["counters"]["gp.rank1_updates"] > 0

    def test_assignment_bench_hits_cache(self):
        r = run_benchmark("assignment_cache", profile="smoke", seed=0)
        assert r["counters"]["sched.assign_cache_hits"] > 0
        assert r["counters"]["sched.assign_cache_misses"] > 0

    def test_eubo_bench_counts_vectorized_pairs(self):
        r = run_benchmark("eubo_pairs", profile="smoke", seed=0)
        assert r["counters"]["acq.eubo_vectorized_pairs"] > 0

    def test_serve_full_solve_counts_each_solve_once(self):
        r = run_benchmark("serve_full_solve", profile="smoke", seed=0)
        repeats = PROFILES["smoke"]["serve_full_solve"]["repeats"]
        assert r["counters"]["serve.engine.solve_all_calls"] == repeats
        # the same population every repeat: the same attempts each time
        attempts = r["counters"]["serve.engine.upgrade_attempts"]
        assert attempts > 0 and attempts % repeats == 0

    def test_run_benchmarks_default_runs_all(self):
        results = run_benchmarks(profile="smoke")
        assert [r["name"] for r in results] == list(BENCHMARKS)
        # the counters are deterministic: each run does the recorded work
        for r in results:
            assert check_result(r, _baseline("smoke", r["name"])) == []


class TestSaveAndCheck:
    def _fake(self, wall_s, rank1_updates=4.0, name="gp_update"):
        return {
            "name": name,
            "wall_s": wall_s,
            "iters_per_s": 4 / wall_s,
            "counters": {"gp.rank1_updates": rank1_updates, "gp.rank1_fallbacks": 0.0},
        }

    def test_save_bench_roundtrip(self, tmp_path):
        r = self._fake(0.5)
        path = save_bench(r, tmp_path)
        assert path.name == "BENCH_gp_update.json"
        loaded = load_results(path)
        assert loaded["counters"] == r["counters"]
        json.loads(path.read_text())  # plain JSON on disk

    def test_check_ignores_wall_time(self):
        baseline = self._fake(1.0)
        assert check_result(self._fake(10.0), baseline) == []
        assert check_result(self._fake(0.1), baseline) == []

    def test_check_fails_on_real_regression(self):
        baseline = self._fake(1.0)
        failures = check_result(self._fake(1.0, rank1_updates=3.0), baseline)
        assert len(failures) == 1
        assert "gp_update" in failures[0] and "gp.rank1_updates" in failures[0]

    def test_check_fails_on_missing_counter(self):
        baseline = self._fake(1.0)
        result = self._fake(1.0)
        del result["counters"]["gp.rank1_fallbacks"]
        result["counters"]["gp.chol_cache_hits"] = 2.0
        failures = check_result(result, baseline)
        assert len(failures) == 1 and "gp.chol_cache_hits" in failures[0]

    def test_refit_every_update_fails_the_gate(self, monkeypatch):
        def refit(self, x_new, y_new):
            x_all = np.vstack([self._x, x_new])
            return self.fit(x_all, np.concatenate([self._y_raw, y_new]), optimize=False)

        monkeypatch.setattr(GPRegressor, "update", refit)
        r = run_benchmark("gp_update", profile="smoke", seed=0)
        baseline = _baseline("smoke", "gp_update")
        assert r["counters"]["gp.rank1_updates"] != baseline["counters"]["gp.rank1_updates"]
        failures = check_result(r, baseline)
        assert failures and all(f.startswith("gp_update:") for f in failures)


class TestRecordedBaselines:
    """The committed baselines must stay loadable and match today's work."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_baselines_exist_for_every_benchmark(self, profile):
        for name in BENCHMARKS:
            record = _baseline(profile, name)
            assert record["name"] == name
            assert record["profile"] == profile
            assert record["config"] == PROFILES[profile][name]
            assert record["wall_s"] > 0
            assert set(record["counters"]) == set(_COUNTERS)
