"""Experiment harness: one entry point per paper figure.

``repro.bench.experiments`` regenerates every evaluation artifact of
§5 (Figures 2–10) as structured data; ``repro.bench.reporting``
renders the same rows/series the paper plots as ASCII tables.  The
pytest-benchmark files under ``benchmarks/`` call these entry points.
"""

from repro.bench.harness import MethodResult, run_method, make_problem
from repro.bench.experiments import (
    fig2_profiling_surfaces,
    fig3a_contention,
    fig3b_pareto,
    fig4_jitter,
    fig6_preference_sweep,
    fig7_scaling,
    fig8_outcome_r2,
    fig9_preference_accuracy,
    fig10a_weight_sensitivity,
    fig10b_threshold_sensitivity,
)
from repro.bench.reporting import (
    experiment_record,
    format_heatmap,
    format_series,
    format_table,
)
from repro.bench.io import save_results, load_results
from repro.bench.hotpath import (
    BENCHMARKS,
    check_result,
    run_benchmark,
    save_bench,
)

__all__ = [
    "MethodResult",
    "run_method",
    "make_problem",
    "fig2_profiling_surfaces",
    "fig3a_contention",
    "fig3b_pareto",
    "fig4_jitter",
    "fig6_preference_sweep",
    "fig7_scaling",
    "fig8_outcome_r2",
    "fig9_preference_accuracy",
    "fig10a_weight_sensitivity",
    "fig10b_threshold_sensitivity",
    "experiment_record",
    "format_table",
    "format_series",
    "format_heatmap",
    "save_results",
    "load_results",
    "BENCHMARKS",
    "check_result",
    "run_benchmark",
    "save_bench",
]
