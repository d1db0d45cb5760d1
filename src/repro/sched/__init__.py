"""Periodic scheduling substrate: Algorithm 1 and the §3 theory.

Contains the paper's group-based heuristic zero-jitter scheduler:
high-rate stream splitting (§3 Variable Definition), divisor-count
priority grouping (Algorithm 1), Hungarian group→server assignment
minimizing communication latency, and executable statements of
Const1/Const2 and Theorems 1–3.
"""

from repro.sched.streams import PeriodicStream, split_high_rate_streams
from repro.sched.theory import (
    const1_satisfied,
    const2_satisfied,
    theorem1_zero_jitter,
    theorem3_conditions,
    utilization,
)
from repro.sched.theory import stagger_offsets
from repro.sched.grouping import (
    GroupingResult,
    ZeroJitterGroup,
    group_streams,
    divisor_priorities,
    InfeasibleScheduleError,
)
from repro.sched.assignment import (
    resolve_assignment,
    communication_latency,
    solve_group_assignment,
    clear_assignment_cache,
)
from repro.sched.solvers import (
    exact_grouping,
    AnnealedScheduler,
    AnnealResult,
)

__all__ = [
    "PeriodicStream",
    "split_high_rate_streams",
    "const1_satisfied",
    "const2_satisfied",
    "theorem1_zero_jitter",
    "theorem3_conditions",
    "utilization",
    "stagger_offsets",
    "GroupingResult",
    "group_streams",
    "ZeroJitterGroup",
    "divisor_priorities",
    "InfeasibleScheduleError",
    "resolve_assignment",
    "communication_latency",
    "solve_group_assignment",
    "clear_assignment_cache",
    "exact_grouping",
    "AnnealedScheduler",
    "AnnealResult",
]
