"""Differential tests: the Theorem-2 pre-check never changes a verdict.

``EVAProblem.is_feasible`` rejects a decision whose total utilisation
Σ p_i·s_i exceeds N·(1 + _EPS·s_max) before running Algorithm 1.  The
oracle here is the check without it: strict ``schedule`` (streams,
splitting, ``group_streams(strict=True)``, Hungarian assignment)
either succeeds or raises.  Every pre-check reject must be a decision
on which strict grouping raises, and the two verdicts must agree on
every decision.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import ConfigSpace, EVAProblem
from repro.sched.grouping import InfeasibleScheduleError, group_streams
from repro.video.profiles import DeviceProfile


def _strict_verdict(problem, r, s) -> bool:
    try:
        problem.schedule(r, s, strict=True)
    except InfeasibleScheduleError:
        return False
    return True


@st.composite
def decisions(draw):
    """A problem (random device speed) and a knob decision on it."""
    n_streams = draw(st.integers(1, 10))
    n_servers = draw(st.integers(1, 5))
    profile = DeviceProfile(
        effective_tflops=draw(st.floats(2.0, 60.0)),
        fixed_overhead=draw(st.floats(0.0, 0.05)),
    )
    problem = EVAProblem(
        n_streams, [10.0 + 5.0 * q for q in range(n_servers)], profile=profile
    )
    space = problem.config_space
    r = [draw(st.sampled_from(space.resolutions)) for _ in range(n_streams)]
    s = [draw(st.sampled_from(space.fps_values)) for _ in range(n_streams)]
    return problem, r, s


@settings(max_examples=300, deadline=None)
@given(decisions())
def test_precheck_verdict_equals_strict_algorithm1(case):
    problem, r, s = case
    strict = _strict_verdict(problem, r, s)
    assert problem.is_feasible(r, s) == strict
    r_arr, s_arr = problem._check_decision(r, s)
    if problem._exceeds_const1(r_arr, s_arr):
        assert not strict
        with pytest.raises(InfeasibleScheduleError):
            group_streams(problem.make_streams(r, s), problem.n_servers, strict=True)


def _tight_problem(p: float, n_streams: int) -> EVAProblem:
    """One 1-fps knob whose processing time is exactly ``p`` (one server)."""
    profile = DeviceProfile(
        effective_tflops=1.0, flops_ref=0.5, ref_width=1000.0, fixed_overhead=p - 0.5
    )
    space = ConfigSpace(resolutions=(1000.0,), fps_values=(1.0,))
    return EVAProblem(n_streams, [10.0], config_space=space, profile=profile)


@pytest.mark.parametrize(
    ("p", "feasible"),
    [
        (0.5, True),  # Σp = T_min exactly
        (0.5 + 4e-10, True),  # Σp = T_min + 8e-10: inside Algorithm 1's _EPS slack
        (0.5 + 6e-10, False),  # Σp = T_min + 1.2e-9: past it
    ],
)
def test_precheck_keeps_the_grouping_slack(p, feasible):
    # Two streams on one server: Σ p·s exceeds N = 1 in the last two
    # cases, but Algorithm 1 still accepts the group within _EPS, so a
    # bare "Σ p·s > N" test would reject a feasible decision.
    problem = _tight_problem(p, 2)
    r, s = [1000.0, 1000.0], [1.0, 1.0]
    assert _strict_verdict(problem, r, s) is feasible
    assert problem.is_feasible(r, s) is feasible


def test_precheck_reject_skips_algorithm1(monkeypatch):
    import repro.core.problem as problem_mod

    problem = EVAProblem(10, [10.0, 20.0])
    r, s = [2000.0] * 10, [30.0] * 10  # Σ p·s ≈ 124 on 2 servers
    calls = []
    monkeypatch.setattr(
        problem_mod, "group_streams", lambda *a, **k: calls.append(a) or group_streams(*a, **k)
    )
    assert problem.is_feasible(r, s) is False
    assert calls == []
    assert _strict_verdict(problem, r, s) is False
    assert len(calls) == 1
