"""Self-test of the end-to-end benchmark (not part of the tier-1 suite).

    python -m pytest benchmarks/e2e -q

Checks the tracer's self-time arithmetic and patching, runs every
workload at reduced size through the same constructors and checks that
each metric BENCHMARK.json names comes out with its unit, checks the
comparison verdicts, and checks that the runner refuses to run without
the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import compare  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402
from repro.serve import ChurnProfile  # noqa: E402

SPEC = run.load_spec()


def test_self_time_subtracts_direct_children():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9].
    spans = [
        (2, 1, "outcomes.surrogate", "c", 2.0, 3.0, 0),
        (1, 0, "bo.loop", "b", 1.0, 4.0, 0),
        (3, 0, "core.problem", "d", 5.0, 9.0, 0),
        (0, -1, "core.pamo", "a", 0.0, 10.0, 0),
    ]
    stats = trace.layer_stats(spans)
    assert stats["core.pamo"] == {"calls": 1, "self_s": 3.0}
    assert stats["bo.loop"] == {"calls": 1, "self_s": 2.0}
    assert stats["outcomes.surrogate"] == {"calls": 1, "self_s": 1.0}
    assert stats["core.problem"] == {"calls": 1, "self_s": 4.0}
    assert stats["sim"] == {"calls": 0, "self_s": 0.0}
    assert sum(s["self_s"] for s in stats.values()) == 10.0


def test_tracer_patches_where_names_are_looked_up_and_restores():
    import repro.core.problem as problem_mod
    import repro.sched.grouping as grouping_mod
    from repro.core.problem import EVAProblem

    original = grouping_mod.group_streams
    problem = EVAProblem(3, [10.0, 20.0])
    with trace.Tracer("test") as tracer:
        assert problem_mod.group_streams is not original
        problem.is_feasible([300.0] * 3, [1.0] * 3)
        problem.is_feasible([300.0] * 3, [1.0] * 3)  # cached: no strict re-schedule
    assert problem_mod.group_streams is original
    assert EVAProblem.schedule.__name__ == "schedule"
    by_id = {s[0]: s for s in tracer.spans}
    grouping = [s for s in tracer.spans if s[2] == "sched.grouping"]
    assert len(grouping) == 1
    assert by_id[grouping[0][1]][2] == "core.problem"
    # is_feasible -> schedule stays one core.problem span per outer call
    assert tracer.layer_stats()["core.problem"]["calls"] == 2
    assert tracer.counters == {
        "core.problem.is_feasible": 2,
        "core.problem.strict_schedules": 1,
    }


_TINY_PAMO = dict(
    n_profile=10, n_outcome_space=6, n_init_comparisons=2, n_pref_queries=2,
    batch_size=2, n_iterations=1, n_pool=6, n_mc_samples=8, delta=1e-12,
)
_TINY = {
    "pamo_paper": dict(n_streams=3, n_servers=2, inputs=2,
                       pamo_kwargs=tuple(sorted(_TINY_PAMO.items()))),
    "serve_overload": dict(
        n_streams=12, n_servers=3,
        profile=ChurnProfile(hours=0.05, arrivals_per_hour=600, departures_per_hour=300,
                             burst_start_s=30.0, burst_duration_s=60.0,
                             burst_multiplier=4.0),
    ),
}


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_reduced_workload_reports_every_metric_with_its_unit(name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], **_TINY[name])
    plain, plain_record, _ = run.evaluate(
        workload, 3, seconds=0.01, traced=False, spec=SPEC
    )
    layered, layered_record, tracer = run.evaluate(
        workload, 3, seconds=0.01, traced=True, spec=SPEC
    )
    for result, names in ((plain, SPEC["end_to_end"]), (layered, SPEC["per_layer"])):
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in names
        }
        json.dumps(result)
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0, m["name"]
    # Same seed, same inputs: both modes decide identically.
    assert plain_record["digest"] == layered_record["digest"]
    assert layered["metrics"]["trace.unattributed_share"]["value"] < 0.2
    assert tracer.spans and all(s[6] >= 0 for s in tracer.spans)


def test_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [v - 50 for v in parent], "lower", 0.1) == ("improved", 1.0)
    assert compare.verdict(parent, parent, "lower", 0.1) == ("no-regression", 0.0)
    assert compare.verdict(parent, [v * 1.5 for v in parent], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent[:9], parent[:9], "lower", 0.1)[0] == "unresolved"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "pamo_paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not found" in proc.stderr
