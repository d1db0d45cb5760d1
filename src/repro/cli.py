"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``optimize`` — build an EVA problem and run a scheduler on it,
  printing the per-stream decision and outcome; ``--telemetry PATH``
  writes a JSONL event log and ``--profile`` adds cProfile summaries.
  Registered scheduler names are accepted as top-level shorthand
  (``repro pamo --telemetry run.jsonl``);
* ``figure`` — regenerate one of the paper's figures (2, 3, 4, 6, 7,
  8, 9, 10a, 10b) and print its table;
* ``report`` — summarize a telemetry log: span time tree, convergence
  curve, diagnostics tables (``--format text|json|markdown``);
* ``compare`` — diff two telemetry logs on wall time / iterations /
  final benefit; exits non-zero on regression (CI perf gate);
* ``trace`` — export a telemetry log to Chrome ``trace_event`` JSON
  for Perfetto / ``chrome://tracing``;
* ``chaos`` — run a scheduler under a deterministic fault plan
  (server crashes, bandwidth drops, stream churn) and report each
  post-fault epoch's benefit against the fault-free baseline;
* ``bench`` — time the GP/BO and serve hot paths on fixed seeds, write
  ``BENCH_<name>.json`` records, and optionally gate their work
  counters against recorded baselines (``--check``; the CI bench-smoke
  job);
* ``serve`` — the event-driven online scheduler service family:
  ``serve loadgen`` writes a seeded churn event log, ``serve run``
  replays one through :class:`repro.serve.SchedulerService` (with
  ``--telemetry`` incl. size rotation, ``--checkpoint``/``--resume``,
  and ``--metrics-port`` exposing live ``/metrics``/``/healthz``/
  ``/varz`` endpoints with ``--slo`` health rules), ``serve top``
  renders a live terminal dashboard off a running ``serve run``, and
  ``serve report`` summarizes a serve trace with rolling-window
  decision-latency percentiles and an optional ``--max-p95`` CI gate;
* ``info`` — version and module inventory.

``optimize`` also understands ``--checkpoint PATH`` /
``--checkpoint-every N`` (periodically pickle a resumable snapshot)
and ``--resume CKPT`` (continue an interrupted run bit-identically).

The parser is assembled from per-subsystem ``_register_*`` functions
(core, bench/figures, obs, resilience, serve), each owning its
``add_parser`` blocks; existing command spellings are stable.
"""

from __future__ import annotations

import argparse
import contextlib
import pickle
import sys
from typing import Sequence

import numpy as np

from repro._version import __version__


def _check_writable(path: str) -> str | None:
    """Try creating/appending ``path``; return an error string on failure."""
    from pathlib import Path

    try:
        p = Path(path)
        existed = p.exists()
        p.parent.mkdir(parents=True, exist_ok=True)
        p.open("a").close()
        # Don't leave an empty probe artifact behind: a run that never
        # writes the file (e.g. converges before its first checkpoint)
        # must not look like it produced a corrupt one.
        if not existed:
            p.unlink()
    except OSError as exc:
        return str(exc)
    return None


class _UsageError(Exception):
    """Bad input found mid-command: :func:`main` prints it, exits 2."""


@contextlib.contextmanager
def _telemetry_session(
    path: str,
    *,
    profile: bool = False,
    max_mb: float = 0.0,
    backups: int = 3,
    **summary,
):
    """One command's telemetry lifecycle.

    Records when ``path`` (a JSONL log, rotated at ``max_mb`` with
    ``backups`` old segments) or ``profile`` asks for it, and on the way
    out — return, error exit or exception alike — writes the
    ``run.summary`` record (``summary`` keys ride along) and disables
    telemetry, closing the sink.  An unwritable ``path`` raises
    :class:`_UsageError` before anything is enabled.
    """
    from repro.obs import JsonlSink, telemetry

    if path and (err := _check_writable(path)):
        raise _UsageError(f"cannot write telemetry log: {err}")
    if not (path or profile):
        yield
        return
    sink = None
    if path:
        sink = JsonlSink(
            path, max_bytes=int(max_mb * 1024 * 1024), backup_count=backups
        )
    telemetry.enable(sink, profile=profile)
    try:
        yield
    finally:
        telemetry.emit_summary(**summary)
        telemetry.disable()


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.baselines import available_schedulers
    from repro.outcomes.functions import OBJECTIVES

    print(f"repro {__version__} — PaMO reproduction (ICPP '24)")
    print(f"objectives: {', '.join(OBJECTIVES)}")
    print(f"schedulers: {', '.join(available_schedulers())}")
    print("figures: 2, 3, 4, 6, 7, 8, 9, 10a, 10b")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.baselines import make_scheduler
    from repro.bench.reporting import format_table
    from repro.core import EVAProblem, make_preference
    from repro.obs import telemetry

    resume_path = getattr(args, "resume", "") or ""
    resume_state = None
    if resume_path:
        from repro.resilience.checkpoint import load_checkpoint

        try:
            ckpt = load_checkpoint(resume_path)
        except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
            print(f"error: cannot resume from {resume_path}: {exc}", file=sys.stderr)
            return 2
        scheduler = ckpt.scheduler
        resume_state = ckpt.bo_state
        problem = scheduler.problem
        bw = [float(b) for b in problem.bandwidths_mbps]
        pref = getattr(scheduler.decision_maker, "preference", None)
        if pref is None:
            pref = make_preference(problem)
        print(
            f"resuming {scheduler.name} from {resume_path} "
            f"(after iteration {ckpt.iteration})"
        )
    else:
        try:
            bw = _parse_bandwidths(args, args.servers)
            problem = EVAProblem(n_streams=args.streams, bandwidths_mbps=bw)
            pref = make_preference(problem, weights=_parse_weights(args))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        extra = {}
        if getattr(args, "checkpoint", ""):
            if err := _check_writable(args.checkpoint):
                print(f"error: cannot write checkpoint: {err}", file=sys.stderr)
                return 2
            extra = {
                "checkpoint_path": args.checkpoint,
                "checkpoint_every": args.checkpoint_every,
            }
        try:
            scheduler = make_scheduler(
                args.method, problem, preference=pref, rng=args.seed, **extra
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TypeError:
            if extra:
                print(
                    f"error: method {args.method!r} does not support "
                    "checkpointing (--checkpoint)",
                    file=sys.stderr,
                )
                return 2
            raise

    telemetry_path = getattr(args, "telemetry", "") or ""
    profile = bool(getattr(args, "profile", False))
    with _telemetry_session(
        telemetry_path, profile=profile, method=args.method, seed=args.seed
    ):
        with telemetry.span("cli.optimize"):
            if resume_state is not None:
                out = scheduler.optimize(resume=resume_state)
            else:
                out = scheduler.optimize()
        if telemetry.enabled:
            telemetry.event(
                "optimize.done",
                method=scheduler.name,
                seed=args.seed,
                outcome=out.to_dict(),
            )

    d = out.decision
    print(f"method: {d.method}   servers: {np.round(bw, 1).tolist()} Mbps")
    print(
        format_table(
            ["stream", "resolution", "fps", "server"],
            [
                [i, int(d.resolutions[i]), d.fps[i], d.assignment[i] if i < len(d.assignment) else "-"]
                for i in range(d.n_streams)
            ],
        )
    )
    names = ("latency_s", "mAP", "Mbps", "TFLOPs", "W")
    print("outcome:", {n: round(float(v), 4) for n, v in zip(names, d.outcome)})
    print(f"true benefit: {float(pref.value(d.outcome)):.4f}")
    if telemetry_path or profile:
        report = telemetry.report()
        spans = report.get("spans", {})
        total = spans.get("cli.optimize", {}).get("total_s", 0.0)
        print(
            f"telemetry: trace {telemetry.trace_id} — "
            f"{len(report.get('counters', {}))} counters, "
            f"{len(spans)} spans, optimize took {total:.3f}s"
        )
        if telemetry_path:
            print(f"telemetry events written to {telemetry_path}")
            print(f"inspect with: repro report {telemetry_path}")
        if profile and report.get("profile"):
            print("top functions (cumulative):")
            for row in report["profile"]["top"][:5]:
                print(f"  {row['cumtime_s']:8.3f}s  {row['function']}")
    return 0


_FIGURES = {
    "2": "fig2",
    "3": "fig3",
    "4": "fig4",
    "6": "fig6",
    "7": "fig7",
    "8": "fig8",
    "9": "fig9",
    "10a": "fig10a",
    "10b": "fig10b",
}


def _figure_data(fig: str, quick: bool):
    """Regenerate figure ``fig``, print its table; return its data."""
    from repro.bench import (
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
        format_series,
        format_table,
    )

    saved_data = None
    if fig == "2":
        data = fig2_profiling_surfaces(
            resolutions=(400, 1200, 2000) if quick else (300, 600, 900, 1200, 1600, 2000),
            fps_values=(2, 15, 30) if quick else (1, 5, 10, 15, 20, 25, 30),
            n_frames=24 if quick else 45,
        )
        saved_data = data
        clip = [k for k in data if k.startswith("mot")][0]
        rows = [
            [r] + list(np.round(data[clip]["accuracy"][i], 3))
            for i, r in enumerate(data["resolutions"])
        ]
        print(
            format_table(
                ["res\\fps"] + [str(f) for f in data["fps_values"]],
                rows,
                title=f"Fig.2 mAP surface ({clip})",
            )
        )
        from repro.bench import format_heatmap

        for metric in ("accuracy", "network_mbps", "power_watts"):
            print()
            print(
                format_heatmap(
                    data[clip][metric],
                    row_labels=[int(r) for r in data["resolutions"]],
                    col_labels=[str(int(f)) for f in data["fps_values"]],
                    title=f"{metric} (rows: resolution, cols: fps)",
                )
            )
    elif fig == "3":
        a = fig3a_contention()
        print(
            f"Fig.3a: queueing delay frame 1 = {a['video2_delays'][0]:.2f}s, "
            f"last = {a['video2_delays'][-1]:.2f}s"
        )
        b = fig3b_pareto(n_decisions=20 if quick else 60)
        print(f"Fig.3b: Pareto front size = {len(b['pareto_indices'])}")
        saved_data = {"fig3a": a, "fig3b": b}
    elif fig == "4":
        d = fig4_jitter()
        saved_data = d
        print(
            f"Fig.4: naive jitter = {d['bad_assignment_jitter'] * 1e3:.1f} ms, "
            f"Algorithm 1 jitter = {d['algorithm1_jitter'] * 1e3:.4f} ms"
        )
    elif fig == "6":
        recs = fig6_preference_sweep(
            weight_values=(0.2, 3.2) if quick else (0.2, 0.4, 1.6, 3.2),
            objectives=("acc",) if quick else ("ltc", "acc", "net", "com", "eng"),
            n_streams=4 if quick else 8,
            n_servers=3 if quick else 5,
        )
        saved_data = recs
        rows = [
            [f"w_{r['objective']}={r['weight']}"]
            + [round(r["normalized"][m], 3) for m in ("JCAB", "FACT", "PaMO", "PaMO+")]
            for r in recs
        ]
        print(format_table(["setting", "JCAB", "FACT", "PaMO", "PaMO+"], rows, title="Fig.6"))
    elif fig == "7":
        d = fig7_scaling(
            node_counts=(5,) if quick else (5, 6, 7, 8, 9),
            video_counts=(7,) if quick else (7, 8, 9, 10, 11),
        )
        saved_data = d
        for key, label in (("by_nodes", "nodes"), ("by_videos", "videos")):
            series = {
                m: [r["normalized"][m] for r in d[key]]
                for m in ("JCAB", "FACT", "PaMO", "PaMO+")
            }
            print(format_series(label, [r["setting"] for r in d[key]], series))
    elif fig == "8":
        d = fig8_outcome_r2(
            train_sizes=(50, 150) if quick else (200, 300, 400, 500, 600),
            n_reps=1 if quick else 3,
        )
        saved_data = d
        print(format_series("train size", d["train_sizes"], d["r2"], title="Fig.8 R²"))
    elif fig == "9":
        d = fig9_preference_accuracy(
            pair_counts=(3, 18) if quick else (3, 6, 9, 18, 27),
            n_test_pairs=100 if quick else 500,
            n_reps=1 if quick else 3,
        )
        saved_data = d
        print(
            format_series(
                "pairs", d["pair_counts"], {"accuracy": d["accuracy"]}, title="Fig.9"
            )
        )
    elif fig == "10a":
        recs = fig10a_weight_sensitivity(
            weight_values=(0.1, 1.0, 5.0) if quick else (0.05, 0.1, 0.2, 0.5, 0.8, 1.0, 2.0, 5.0),
            configs=((3, 4),) if quick else ((5, 8), (6, 10)),
        )
        saved_data = recs
        rows = [
            [r["config"], r["weight"], round(r["JCAB"], 3), round(r["FACT"], 3),
             round(r["PaMO"], 3), round(r["PaMO+"], 3)]
            for r in recs
        ]
        print(format_table(["config", "w", "JCAB", "FACT", "PaMO", "PaMO+"], rows, title="Fig.10a"))
    elif fig == "10b":
        recs = fig10b_threshold_sensitivity(
            deltas=(0.02, 0.2) if quick else (0.02, 0.04, 0.06, 0.08, 0.1, 0.2),
            configs=((3, 4),) if quick else ((5, 8),),
        )
        saved_data = recs
        rows = [
            [r["config"], r["delta"], round(r["JCAB"], 3), round(r["FACT"], 3),
             round(r["PaMO"], 3), round(r["PaMO+"], 3)]
            for r in recs
        ]
        print(format_table(["config", "delta", "JCAB", "FACT", "PaMO", "PaMO+"], rows, title="Fig.10b"))
    return saved_data


def _cmd_figure(args: argparse.Namespace) -> int:
    fig = args.id
    if fig not in _FIGURES:
        print(
            f"error: unknown figure {fig!r}; choose from {sorted(_FIGURES)}",
            file=sys.stderr,
        )
        return 2
    telemetry_path = getattr(args, "telemetry", "") or ""
    with _telemetry_session(telemetry_path, figure=fig):
        saved_data = _figure_data(fig, args.quick)
        if getattr(args, "output", "") and saved_data is not None:
            from repro.bench import experiment_record, save_results

            path = save_results(experiment_record(saved_data), args.output)
            print(f"results written to {path}")
    if telemetry_path:
        from repro.obs import telemetry

        print(f"telemetry: trace {telemetry.trace_id}")
        print(f"telemetry events written to {telemetry_path}")
        print(f"inspect with: repro report {telemetry_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs.report import (
        render_markdown,
        render_text,
        summarize_file,
        to_json,
    )

    try:
        summary = summarize_file(args.log)
    except OSError as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    if summary.n_events == 0:
        print(f"error: no telemetry events in {args.log}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(to_json(summary), indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(render_markdown(summary))
    else:
        print(render_text(summary))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs.report import compare_files, parse_threshold, render_compare

    try:
        threshold = parse_threshold(args.threshold)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result, base, cand = compare_files(
            args.baseline, args.candidate, threshold=threshold
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if base.n_events == 0 or cand.n_events == 0:
        empty = args.baseline if base.n_events == 0 else args.candidate
        print(f"error: no telemetry events in {empty}", file=sys.stderr)
        return 2
    print(f"baseline:  {args.baseline}  (trace {base.trace_id})")
    print(f"candidate: {args.candidate}  (trace {cand.trace_id})")
    print(render_compare(result))
    return 1 if result.regressed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.hotpath import (
        BENCHMARKS,
        check_result,
        run_benchmark,
        save_bench,
    )
    from repro.bench.io import load_results
    from repro.bench.reporting import format_table

    names = args.names or sorted(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        print(
            f"error: unknown benchmark(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(BENCHMARKS))}",
            file=sys.stderr,
        )
        return 2

    rows = []
    failures: list[str] = []
    for name in names:
        result = run_benchmark(name, profile=args.profile, seed=args.seed)
        path = save_bench(result, args.output_dir)
        baseline_wall = "-"
        if args.check:
            base_path = Path(args.check) / f"BENCH_{name}.json"
            if not base_path.exists():
                failures.append(f"{name}: no baseline at {base_path}")
            else:
                baseline = load_results(base_path)
                baseline_wall = round(baseline["wall_s"], 4)
                failures.extend(check_result(result, baseline))
        rows.append(
            [
                name,
                round(result["wall_s"], 4),
                baseline_wall,
                f"{result['iters_per_s']:.1f}",
                str(path),
            ]
        )
    print(
        format_table(
            ["benchmark", "wall (s)", "baseline (s)", "iters/s", "output"],
            rows,
            title=f"hot-path benchmarks ({args.profile}, seed {args.seed})",
        )
    )
    if args.check:
        if failures:
            for f in failures:
                print(f"FAIL {f}", file=sys.stderr)
            return 1
        print(f"all {len(names)} benchmark(s) match the baseline counters")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.baselines import make_scheduler
    from repro.bench.reporting import format_table
    from repro.core import EVAProblem, make_preference
    from repro.resilience import ChaosRunner, FaultPlan

    try:
        bw = _parse_bandwidths(args, args.servers)
        problem = EVAProblem(n_streams=args.streams, bandwidths_mbps=bw)
        pref = make_preference(problem, weights=_parse_weights(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.faults:
            plan = FaultPlan.from_specs(
                [s for s in args.faults.split(",") if s.strip()]
            )
        else:
            plan = FaultPlan.random(
                n_servers=args.servers,
                n_streams=args.streams,
                horizon=args.horizon,
                n_faults=args.n_faults,
                rng=args.seed,
            )
    except ValueError as exc:
        print(f"error: bad fault plan: {exc}", file=sys.stderr)
        return 2

    def factory(prob):
        return make_scheduler(args.method, prob, preference=pref, rng=args.seed)

    telemetry_path = getattr(args, "telemetry", "") or ""
    monitor = None
    if args.max_drop is not None:
        from repro.obs import HealthMonitor, SloRule

        monitor = HealthMonitor(
            [
                SloRule(
                    metric="benefit_drop_ratio",
                    op="<=",
                    threshold=float(args.max_drop),
                    severity="degraded",
                    name="benefit_drop",
                ),
                SloRule(
                    metric="feasible",
                    op=">=",
                    threshold=1.0,
                    severity="unhealthy",
                    name="feasibility",
                ),
            ]
        )
    with _telemetry_session(telemetry_path, method=args.method, seed=args.seed):
        try:
            runner = ChaosRunner(
                problem, plan, factory, preference=pref, monitor=monitor
            )
            report = runner.run()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    print(
        f"method: {args.method}   servers: {np.round(bw, 1).tolist()} Mbps   "
        f"streams: {args.streams}"
    )
    print(f"fault plan ({len(plan)} events):")
    for e in plan:
        extra = f" x{e.value}" if e.value is not None else ""
        print(f"  t={e.time:g}  {e.kind}:{e.target}{extra}")
    print(f"baseline benefit: {report.baseline_benefit:.4f}")
    rows = []
    scale = max(abs(report.baseline_benefit), 1e-12)
    for ep in report.epochs:
        drop = (
            "-"
            if ep.benefit is None
            else f"{max(0.0, (report.baseline_benefit - ep.benefit) / scale):.1%}"
        )
        rows.append(
            [
                ep.index,
                f"{ep.time:g}",
                ",".join(f"{e.kind}:{e.target}" for e in ep.events),
                ep.n_servers,
                ep.n_streams,
                "-" if ep.benefit is None else f"{ep.benefit:.4f}",
                drop,
                "yes" if ep.feasible else "NO",
            ]
        )
    print(
        format_table(
            ["epoch", "t", "events", "servers", "streams", "benefit", "drop", "feasible"],
            rows,
        )
    )
    if report.alerts:
        print(f"alerts ({report.alerts_fired} fired):")
        for a in report.alerts:
            print(
                f"  {a['event']}: {a['rule']}"
                f" ({a['metric']}={a['value']:.4g}"
                f" vs {a['threshold']:.4g}, {a['severity']})"
            )
    elif monitor is not None:
        print("alerts: none fired")
    if args.output:
        import json
        from pathlib import Path

        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"chaos report written to {args.output}")
    if telemetry_path:
        print(f"telemetry events written to {telemetry_path}")
    if not report.all_feasible:
        print("FAIL: an epoch produced no feasible schedule", file=sys.stderr)
        return 1
    if args.max_drop is not None:
        drop = report.worst_drop
        if drop is None or drop > args.max_drop:
            print(
                f"FAIL: worst benefit drop "
                f"{'n/a' if drop is None else f'{drop:.1%}'} exceeds "
                f"--max-drop {args.max_drop:.1%}",
                file=sys.stderr,
            )
            return 1
        print(f"worst benefit drop {drop:.1%} within --max-drop {args.max_drop:.1%}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import load_events, write_chrome_trace

    try:
        events = load_events(args.log)
    except OSError as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: no telemetry events in {args.log}", file=sys.stderr)
        return 2
    out = args.output or f"{args.log}.trace.json"
    if err := _check_writable(out):
        print(f"error: cannot write {out}: {err}", file=sys.stderr)
        return 2
    written = write_chrome_trace(events, out)
    print(f"wrote Chrome trace of {len(events)} telemetry events to {written}")
    print("open in Perfetto (ui.perfetto.dev) or chrome://tracing")
    return 0


def _parse_floats(flag: str, text: str, n: int, per: str) -> list[float]:
    """``text`` as exactly ``n`` comma-separated numbers; ValueError otherwise."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if len(values) != n:
        raise ValueError(f"{flag} gives {len(values)} values for {n} {per}")
    return values


def _parse_bandwidths(args: argparse.Namespace, n_servers: int) -> list[float]:
    """--bandwidths (or defaults drawn from --seed); ValueError on a malformed flag."""
    from repro.utils import as_generator

    if n_servers < 1:
        raise ValueError(f"--servers must be >= 1, got {n_servers}")
    if args.bandwidths:
        return _parse_floats("--bandwidths", args.bandwidths, n_servers, "servers")
    choices = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    return as_generator(args.seed).choice(choices, n_servers).tolist()


def _parse_weights(args: argparse.Namespace) -> list[float] | None:
    """--weights, one per objective (None: equal); ValueError on a malformed flag."""
    from repro.outcomes.functions import OBJECTIVES

    if not args.weights:
        return None
    return _parse_floats("--weights", args.weights, len(OBJECTIVES), "objectives")


def _churn_profile(args: argparse.Namespace):
    from repro.serve import ChurnProfile

    return ChurnProfile(
        hours=args.hours,
        arrivals_per_hour=args.arrivals_per_hour,
        departures_per_hour=args.departures_per_hour,
        drifts_per_hour=args.drifts_per_hour,
        flaps_per_hour=args.flaps_per_hour,
        burst_start_s=getattr(args, "burst_start", None),
        burst_duration_s=getattr(args, "burst_duration", 120.0),
        burst_multiplier=getattr(args, "burst_multiplier", 1.0),
        diurnal_amplitude=getattr(args, "diurnal_amplitude", 0.0),
        diurnal_period_s=getattr(args, "diurnal_period", 3600.0),
    )


def _cmd_serve_loadgen(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.serve import generate_load

    try:
        log = generate_load(
            args.streams, args.servers, profile=_churn_profile(args), seed=args.seed
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if err := _check_writable(args.output):
        print(f"error: cannot write {args.output}: {err}", file=sys.stderr)
        return 2
    path = log.save(args.output)
    counts = Counter(e.kind for e in log)
    mix = ", ".join(f"{k}={counts[k]}" for k in sorted(counts))
    print(
        f"wrote {len(log)} events to {path} "
        f"({args.streams} streams, {args.servers} servers, "
        f"{args.hours:g} h, seed {args.seed})"
    )
    print(f"event mix: {mix or 'none'}")
    print(f"replay with: repro serve run --events {path}")
    return 0


#: Flags that configure a fresh service.  A resumed run keeps its
#: checkpoint's configuration, so ``--resume`` rejects them (all default
#: to None).
_RESUME_FIXED = (
    "--priority-map", "--join-rate", "--join-burst", "--max-queue-depth",
    "--protect-priority", "--breaker", "--breaker-deadline",
    "--brownout-slo", "--slo",
)


#: ``serve run`` flags by the constructor keyword they set: a value that
#: a constructor inside ``build_service`` rejects is reported by its flag.
_SERVE_FLAG_OF = {
    "n_streams": "--streams",
    "epoch_s": "--epoch",
    "reoptimize_every": "--reoptimize-every",
    "join_rate_per_epoch": "--join-rate",
    "join_burst": "--join-burst",
    "max_queue_depth": "--max-queue-depth",
    "failure_threshold": "--breaker-failures",
    "cooldown_epochs": "--breaker-cooldown",
    "probe_successes": "--breaker-probes",
    "deadline_s": "--breaker-deadline",
}


def _flag_message(exc: ValueError) -> str:
    """``exc``'s message with a leading constructor keyword named as its flag."""
    msg = str(exc)
    keyword, _, rest = msg.partition(" ")
    flag = _SERVE_FLAG_OF.get(keyword)
    return f"{flag} {rest}" if flag else msg


def _parse_rules(flag: str, specs: list[str]):
    """SLO rule strings as SloRules; ValueError naming ``flag`` if one is bad."""
    from repro.obs import SloRule

    try:
        return [SloRule.parse(spec) for spec in specs]
    except ValueError as exc:
        raise ValueError(f"bad {flag} rule: {exc}") from None


def _stock_slo() -> list[str]:
    """The stock serve SLO rules as ``name: spec`` strings."""
    from repro.obs import default_rules

    return [f"{rule.name}: {rule.spec()}" for rule in default_rules()]


def _serve_spec(args: argparse.Namespace, n_streams: int, n_servers: int) -> dict:
    """The flags of a fresh ``serve run`` as its WAL meta spec.

    The run's service is ``build_service`` of this dict and the WAL
    stores the same dict, so ``serve recover`` rebuilds exactly the
    service that ran.  Pieces no flag asked for stay ``None``, so a
    flagless run keeps the bare service.  ValueError on a bad flag.
    """
    from repro.obs.health import severity_rank
    from repro.serve import parse_priority_map, service_spec

    admission = None
    if args.priority_map or args.join_rate is not None or args.max_queue_depth is not None:
        try:
            priority_map, default_priority = parse_priority_map(args.priority_map or "")
        except ValueError as exc:
            raise ValueError(f"bad --priority-map: {exc}") from None
        admission = {
            "priority_map": priority_map,
            "default_priority": default_priority,
            "join_rate_per_epoch": args.join_rate,
            "join_burst": args.join_burst,
            "max_queue_depth": args.max_queue_depth,
            "protect_priority": args.protect_priority,
        }
    breaker = None
    if args.breaker or args.breaker_deadline is not None:
        breaker = {
            "failure_threshold": args.breaker_failures,
            "cooldown_epochs": args.breaker_cooldown,
            "probe_successes": args.breaker_probes,
            "deadline_s": args.breaker_deadline,
        }
    slo = list(args.slo or [])
    _parse_rules("--slo", slo)
    if not slo and args.metrics_port is not None:
        slo = _stock_slo()
    remediation = None
    if args.brownout_slo:
        brownout = _parse_rules("--brownout-slo", args.brownout_slo)
        # Remediation is severity-thresholded: brownout triggers at the
        # lowest severity any --brownout-slo rule can fire at.
        floor = min((rule.severity for rule in brownout), key=severity_rank)
        remediation = {"brownout_severity": floor}
        slo += args.brownout_slo
    return service_spec(
        n_streams=n_streams,
        bandwidths_mbps=_parse_bandwidths(args, n_servers),
        seed=args.seed,
        method=args.method,
        weights=_parse_weights(args),
        epoch_s=args.epoch,
        reoptimize_every=args.reoptimize_every,
        admission=admission,
        breaker=breaker,
        slo=slo or None,
        remediation=remediation,
    )


def _serve_live(args, service, log, spec) -> int:
    """Attach the WAL and metrics, drain the run; return an exit code.

    A fresh run's WAL starts with ``spec`` as its meta record; a resumed
    run appends to the journal its checkpoint was cut from, which must
    end at the checkpoint's ``wal_seq``.  Everything attached here is
    torn down before returning (signal handlers restored, WAL closed,
    metrics server stopped).
    """
    import signal as _signal

    from repro.obs import telemetry
    from repro.sched.grouping import InfeasibleScheduleError
    from repro.serve import WriteAheadLog, read_wal

    wal = None
    if args.wal:
        if err := _check_writable(args.wal):
            print(f"error: cannot write WAL: {err}", file=sys.stderr)
            return 2
        try:
            if args.resume:
                # Appended to any other journal (another run's, or this
                # run's past the checkpoint) the records would make a
                # journal that recovery replays into different decisions.
                last_seq = read_wal(args.wal).last_seq
                if last_seq != service.wal_seq:
                    raise ValueError(
                        f"its last event is seq {last_seq}, but the checkpoint "
                        f"ends at seq {service.wal_seq}, so it is not the journal "
                        f"this checkpoint was cut from (to rebuild a crashed run "
                        f"use `repro serve recover --wal {args.wal} "
                        f"--checkpoint {args.resume}`)"
                    )
                wal = WriteAheadLog.open(args.wal)
            else:
                wal = WriteAheadLog.create(args.wal, spec)
        except (OSError, ValueError) as exc:
            print(f"error: cannot journal to --wal {args.wal}: {exc}", file=sys.stderr)
            return 2
        service.attach_wal(wal)
        print(f"write-ahead log: {args.wal}")
    metrics_server = None
    old_handlers = {}
    try:
        if args.metrics_port is not None:
            from repro.obs import MetricsRegistry, MetricsServer
            from repro.serve.wal import attach_slo

            # The registry joins the service's own monitor; the stock
            # rules stand in only for a resumed service that has none.
            if service.monitor is None:
                attach_slo(service, _stock_slo())
            registry = MetricsRegistry()
            service.attach_observability(metrics=registry, monitor=service.monitor)
            metrics_server = MetricsServer(
                registry,
                health=service.health_status,
                varz=service.varz,
                host=args.metrics_host,
                port=args.metrics_port,
            )
            try:
                port = metrics_server.start()
            except OSError as exc:
                print(
                    f"error: cannot bind metrics server on "
                    f"{args.metrics_host}:{args.metrics_port}: {exc}",
                    file=sys.stderr,
                )
                return 2
            print(
                f"metrics: {metrics_server.url}/metrics · "
                f"{metrics_server.url}/healthz · {metrics_server.url}/varz"
            )
            print(f"watch live with: repro serve top --port {port}")

        # Graceful shutdown: SIGTERM/SIGINT drain the epoch in flight,
        # write the final checkpoint, sync the WAL, and exit 0.  Install
        # before run() so the whole drain is covered.
        def _graceful(signum, frame):  # noqa: ARG001 — signal handler shape
            service.request_stop()

        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                old_handlers[signum] = _signal.signal(signum, _graceful)
            except (OSError, ValueError):  # non-main thread / exotic embedder
                pass
        with telemetry.span("cli.serve"):
            if not service.started:
                service.start()
            if log is not None:
                service.submit(log)
            service.run(
                max_epochs=args.max_epochs,
                checkpoint_path=args.checkpoint or None,
                checkpoint_every=args.checkpoint_every,
                pace_s=args.pace,
            )
    except InfeasibleScheduleError as exc:
        print(f"error: schedule became infeasible: {exc}", file=sys.stderr)
        return 1
    finally:
        for signum, handler in old_handlers.items():
            try:
                _signal.signal(signum, handler)
            except (OSError, ValueError):
                pass
        if wal is not None:
            wal.close()
        if metrics_server is not None:
            metrics_server.stop()
    return 0


def _cmd_serve_run(args: argparse.Namespace) -> int:
    from repro.serve import EventLog, SchedulerService, build_service, generate_load

    log = None
    if args.events:
        try:
            log = EventLog.load(args.events)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load {args.events}: {exc}", file=sys.stderr)
            return 2
    spec = None
    if args.resume:
        fixed = [
            flag for flag in _RESUME_FIXED
            if getattr(args, flag[2:].replace("-", "_")) is not None
        ]
        if fixed:
            print(
                f"error: {', '.join(fixed)} cannot be combined with --resume: "
                f"a resumed run keeps its checkpoint's configuration",
                file=sys.stderr,
            )
            return 2
        try:
            service = SchedulerService.resume(args.resume)
        except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
            print(f"error: cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        print(
            f"resuming serve run from {args.resume} "
            f"(epoch {service.epoch}, {len(service.planner.entries)} streams, "
            f"{len(service.queue)} queued events)"
        )
    else:
        n_streams, n_servers = args.streams, args.servers
        if log is not None:
            n_streams = log.n_streams or n_streams
            n_servers = log.n_servers or n_servers
        try:
            spec = _serve_spec(args, n_streams, n_servers)
            service = build_service(spec)
        except ValueError as exc:
            print(f"error: {_flag_message(exc)}", file=sys.stderr)
            return 2
        if log is None:
            log = generate_load(
                n_streams, n_servers, profile=_churn_profile(args), seed=args.seed
            )

    if args.checkpoint and (err := _check_writable(args.checkpoint)):
        print(f"error: cannot write checkpoint: {err}", file=sys.stderr)
        return 2
    with _telemetry_session(
        args.telemetry,
        max_mb=args.telemetry_max_mb,
        backups=args.telemetry_backups,
        command="serve.run",
        seed=args.seed,
    ):
        rc = _serve_live(args, service, log, spec)
    if rc:
        return rc

    s = service.summary()
    method = getattr(service.scheduler_factory, "method", "") or "greedy (engine)"
    print(f"serve run: {s['epochs']} epochs, method {method}")
    print(
        f"  streams {s['n_streams']} (end)   alive servers {s['n_alive_servers']}"
    )
    print(
        f"  full solves {s['full_solves']}   cache hits {s['cache_hits']}   "
        f"re-solved {s['solved']}   rejects {s['rejected']}   "
        f"evicted {s['evicted']}"
    )
    if s["shed"] or s["brownout_epochs"] or s["breaker_opens"]:
        print(
            f"  shed {s['shed']}   brownout epochs {s['brownout_epochs']}   "
            f"breaker {s['breaker_state'] or 'off'} "
            f"(opened {s['breaker_opens']}x)"
        )
    print(
        f"  decision latency p50 {s['decision_p50_s'] * 1e3:.3f} ms   "
        f"p95 {s['decision_p95_s'] * 1e3:.3f} ms   "
        f"max {s['decision_max_s'] * 1e3:.3f} ms   "
        f"(window {s['decision_window']} epochs)"
    )
    if s["alerts_fired"] or s["health"] != "ok":
        print(
            f"  health {s['health']}   alerts fired {s['alerts_fired']}"
        )
    if s["benefit_last"] is not None:
        print(
            f"  benefit {s['benefit_first']:+.4f} (warm-up) -> "
            f"{s['benefit_last']:+.4f} (final)"
        )
    if args.checkpoint:
        print(f"  checkpoint written to {args.checkpoint}")
    if args.telemetry:
        print(f"telemetry events written to {args.telemetry}")
        print(
            f"inspect with: repro serve report {args.telemetry} "
            f"(or repro report / repro trace)"
        )
    return 0


def _cmd_serve_recover(args: argparse.Namespace) -> int:
    from repro.obs import telemetry
    from repro.sched.grouping import InfeasibleScheduleError
    from repro.serve import recover_service

    try:
        service, info = recover_service(
            args.wal, checkpoint=args.checkpoint or None
        )
    except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
        print(f"error: cannot recover from {args.wal}: {exc}", file=sys.stderr)
        return 2
    source = (
        f"checkpoint {args.checkpoint} (seq {info.start_seq})"
        if info.from_checkpoint
        else "WAL meta record (fresh rebuild)"
    )
    print(f"recovering from {source}")
    print(
        f"  replaying {info.replayed_events} journaled events "
        f"({info.torn_lines} torn tail lines dropped)"
    )
    telemetry_path = getattr(args, "telemetry", "") or ""
    with _telemetry_session(telemetry_path, command="serve.recover", seed=0):
        try:
            with telemetry.span("cli.serve.recover"):
                if not service.started:
                    service.start()
                service.run(checkpoint_path=args.save_checkpoint or None)
        except InfeasibleScheduleError as exc:
            print(f"error: schedule became infeasible: {exc}", file=sys.stderr)
            return 1
    s = service.summary()
    print(
        f"recovered run: {s['epochs']} epochs total, "
        f"{s['n_streams']} streams, benefit "
        + (
            f"{s['benefit_last']:+.4f}"
            if s["benefit_last"] is not None
            else "n/a"
        )
    )
    mismatches = info.verify(service)
    verified = len(info.recorded) - len(mismatches)
    if mismatches:
        print(
            f"FAIL: {len(mismatches)} of {len(info.recorded)} journaled "
            f"epochs diverged from the recovered decisions:",
            file=sys.stderr,
        )
        for m in mismatches[:10]:
            print(
                f"  epoch {m['epoch']}: recorded {m['expected']}, "
                f"got {m['actual']}",
                file=sys.stderr,
            )
        return 1
    print(
        f"recovery verified: {verified} journaled epochs bit-identical "
        f"to the original run"
    )
    if telemetry_path:
        print(f"telemetry events written to {telemetry_path}")
    if args.save_checkpoint:
        print(f"  checkpoint written to {args.save_checkpoint}")
    return 0


def _cmd_serve_top(args: argparse.Namespace) -> int:
    from repro.serve.top import run_top

    url = args.url or f"http://{args.host}:{args.port}"
    return run_top(
        url,
        interval_s=args.interval,
        iterations=args.iterations,
        color=not args.no_color,
        clear=not args.no_clear,
    )


def _cmd_serve_report(args: argparse.Namespace) -> int:
    import json

    from repro.serve import summarize_serve_run

    try:
        summary = summarize_serve_run(args.log)
    except OSError as exc:
        print(f"error: cannot read {args.log}: {exc}", file=sys.stderr)
        return 2
    if summary.epochs == 0:
        print(f"error: no serve events in {args.log}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
    else:
        print(summary.render())
    if args.max_p95 is not None:
        if not summary.gate(args.max_p95):
            print(
                f"FAIL: p95 decision latency {summary.decision_p95_s:.4f}s "
                f"exceeds --max-p95 {args.max_p95:g}s "
                f"(over {summary.decision_count} epochs)",
                file=sys.stderr,
            )
            return 1
        print(
            f"p95 decision latency {summary.decision_p95_s:.4f}s within "
            f"--max-p95 {args.max_p95:g}s"
        )
    if getattr(args, "max_drop", None) is not None:
        drop = summary.benefit_drop_ratio
        if not summary.gate_drop(args.max_drop):
            shown = "n/a" if drop is None else f"{drop:.1%}"
            print(
                f"FAIL: benefit drop {shown} exceeds "
                f"--max-drop {args.max_drop:.1%}",
                file=sys.stderr,
            )
            return 1
        print(
            f"benefit drop {drop:.1%} within --max-drop {args.max_drop:.1%}"
        )
    return 0


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    """Shared problem-topology flags (optimize, chaos, serve run)."""
    p.add_argument("--streams", type=int, default=6)
    p.add_argument("--servers", type=int, default=4)
    p.add_argument(
        "--bandwidths", type=str, default="", help="comma list of Mbps per server"
    )
    p.add_argument(
        "--weights", type=str, default="", help="comma list: ltc,acc,net,com,eng"
    )


def _register_core(sub) -> None:
    """Core commands: ``info`` and the batch ``optimize``."""
    p_info = sub.add_parser("info", help="package inventory")
    p_info.set_defaults(func=_cmd_info)

    p_opt = sub.add_parser("optimize", help="schedule streams onto servers")
    _add_problem_args(p_opt)
    p_opt.add_argument(
        "--method",
        type=str,
        default="pamo",
        help="registered scheduler name (see `repro info`)",
    )
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument(
        "--telemetry",
        type=str,
        default="",
        metavar="PATH",
        help="write a JSONL telemetry event log (per-BO-iteration records)",
    )
    p_opt.add_argument(
        "--profile",
        action="store_true",
        help="run the scheduler under cProfile and print top functions",
    )
    p_opt.add_argument(
        "--checkpoint",
        type=str,
        default="",
        metavar="PATH",
        help="pickle a resumable checkpoint here every --checkpoint-every iterations",
    )
    p_opt.add_argument(
        "--checkpoint-every",
        type=int,
        default=2,
        metavar="N",
        help="BO iterations between checkpoints (with --checkpoint; default 2)",
    )
    p_opt.add_argument(
        "--resume",
        type=str,
        default="",
        metavar="CKPT",
        help="resume an interrupted run from a checkpoint (ignores problem flags)",
    )
    p_opt.set_defaults(func=_cmd_optimize)


def _register_figures(sub) -> None:
    """Paper-figure regeneration."""
    p_fig = sub.add_parser("figure", help="regenerate a paper figure")
    p_fig.add_argument("id", type=str, help="2|3|4|6|7|8|9|10a|10b")
    p_fig.add_argument("--quick", action="store_true", help="reduced sizes")
    p_fig.add_argument(
        "--output", type=str, default="", help="write results JSON to this path"
    )
    p_fig.add_argument(
        "--telemetry",
        type=str,
        default="",
        metavar="PATH",
        help="record telemetry (JSONL events here; summary in --output JSON)",
    )
    p_fig.set_defaults(func=_cmd_figure)


def _register_obs(sub) -> None:
    """Observability commands: ``report``, ``compare``, ``trace``."""
    p_rep = sub.add_parser("report", help="summarize a telemetry JSONL log")
    p_rep.add_argument("log", type=str, help="telemetry JSONL file")
    p_rep.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="output format (default: text)",
    )
    p_rep.set_defaults(func=_cmd_report)

    p_cmp = sub.add_parser(
        "compare", help="diff two telemetry logs; exit 1 on regression"
    )
    p_cmp.add_argument("baseline", type=str, help="baseline telemetry JSONL")
    p_cmp.add_argument("candidate", type=str, help="candidate telemetry JSONL")
    p_cmp.add_argument(
        "--threshold",
        type=str,
        default="10%",
        help="regression threshold, e.g. 10%% or 0.1 (default: 10%%)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_tr = sub.add_parser(
        "trace", help="export a telemetry log to Chrome trace_event JSON"
    )
    p_tr.add_argument("log", type=str, help="telemetry JSONL file")
    p_tr.add_argument(
        "-o",
        "--output",
        type=str,
        default="",
        help="output path (default: <log>.trace.json)",
    )
    p_tr.set_defaults(func=_cmd_trace)


def _register_resilience(sub) -> None:
    """Fault-injection commands: ``chaos``."""
    p_chaos = sub.add_parser(
        "chaos", help="run a scheduler under a fault plan; compare to fault-free"
    )
    _add_problem_args(p_chaos)
    p_chaos.add_argument(
        "--method", type=str, default="pamo", help="registered scheduler name"
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--faults",
        type=str,
        default="",
        help=(
            "comma list of fault specs <kind>:<target>@<time>[x<value>], "
            "e.g. 'crash:1@0.5,bw:0@2.0x0.25,recover:1@4.0'; "
            "empty = seeded random plan"
        ),
    )
    p_chaos.add_argument(
        "--n-faults", type=int, default=3, help="events in the random plan"
    )
    p_chaos.add_argument(
        "--horizon", type=float, default=10.0, help="random-plan time horizon (s)"
    )
    p_chaos.add_argument(
        "--max-drop",
        type=float,
        default=None,
        metavar="FRAC",
        help="fail (exit 1) if the worst benefit drop exceeds this fraction",
    )
    p_chaos.add_argument(
        "--output", type=str, default="", help="write the chaos report JSON here"
    )
    p_chaos.add_argument(
        "--telemetry",
        type=str,
        default="",
        metavar="PATH",
        help="write a JSONL telemetry event log (fault.* / chaos.* events)",
    )
    p_chaos.set_defaults(func=_cmd_chaos)


def _register_bench(sub) -> None:
    """Benchmark commands: ``bench``."""
    p_bench = sub.add_parser(
        "bench", help="time the GP/BO and serve hot paths; emit BENCH_<name>.json"
    )
    p_bench.add_argument(
        "names",
        nargs="*",
        help="benchmark names (default: all; see repro.bench.hotpath)",
    )
    p_bench.add_argument(
        "--profile",
        choices=("smoke", "medium"),
        default="medium",
        help="sizing profile (default: medium — the acceptance config)",
    )
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--output-dir",
        type=str,
        default=".",
        metavar="DIR",
        help="directory for BENCH_<name>.json records (default: .)",
    )
    p_bench.add_argument(
        "--check",
        type=str,
        default="",
        metavar="DIR",
        help="gate against baseline BENCH_<name>.json files in DIR; "
        "exit 1 when any work counter differs",
    )
    p_bench.set_defaults(func=_cmd_bench)


def _add_churn_args(p: argparse.ArgumentParser) -> None:
    """Shared load-generation flags (serve loadgen, serve run)."""
    p.add_argument(
        "--hours", type=float, default=1.0, help="simulated duration (default: 1)"
    )
    p.add_argument(
        "--arrivals-per-hour", type=float, default=100.0, metavar="RATE",
        help="stream joins per simulated hour (default: 100)",
    )
    p.add_argument(
        "--departures-per-hour", type=float, default=100.0, metavar="RATE",
        help="stream leaves per simulated hour (default: 100)",
    )
    p.add_argument(
        "--drifts-per-hour", type=float, default=10.0, metavar="RATE",
        help="bandwidth drifts per simulated hour (default: 10)",
    )
    p.add_argument(
        "--flaps-per-hour", type=float, default=2.0, metavar="RATE",
        help="server down/up flaps per simulated hour (default: 2)",
    )
    p.add_argument(
        "--burst-start", type=float, default=None, metavar="SECONDS",
        help="flash crowd: arrival rate multiplies by --burst-multiplier "
        "from this simulated time (default: no burst)",
    )
    p.add_argument(
        "--burst-duration", type=float, default=120.0, metavar="SECONDS",
        help="flash-crowd window length (default: 120)",
    )
    p.add_argument(
        "--burst-multiplier", type=float, default=1.0, metavar="X",
        help="arrival-rate multiplier inside the burst window (default: 1)",
    )
    p.add_argument(
        "--diurnal-amplitude", type=float, default=0.0, metavar="A",
        help="sinusoidal arrival swing amplitude in [0, 1) (default: 0)",
    )
    p.add_argument(
        "--diurnal-period", type=float, default=3600.0, metavar="SECONDS",
        help="diurnal cycle period (default: 3600)",
    )


def _register_serve(sub) -> None:
    """Online serving commands: ``serve {run,loadgen,report}``."""
    p_serve = sub.add_parser(
        "serve", help="event-driven online scheduler service"
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    p_run = serve_sub.add_parser(
        "run", help="replay a churn event log through the scheduler service"
    )
    _add_problem_args(p_run)
    _add_churn_args(p_run)
    p_run.add_argument(
        "--events",
        type=str,
        default="",
        metavar="PATH",
        help="event log JSON from `serve loadgen` (else generate from the "
        "churn flags); its topology overrides --streams/--servers",
    )
    p_run.add_argument(
        "--method",
        type=str,
        default="",
        metavar="NAME",
        help="batch scheduler for warm-up/drift full solves (registered "
        "name; default: the engine's greedy admission)",
    )
    p_run.add_argument(
        "--epoch", type=float, default=1.0, metavar="SECONDS",
        help="epoch clock granularity (default: 1.0)",
    )
    p_run.add_argument(
        "--reoptimize-every", type=int, default=0, metavar="N",
        help="force a full solve every N epochs (default: 0 = incremental only)",
    )
    p_run.add_argument(
        "--max-epochs", type=int, default=None, metavar="N",
        help="stop after N event epochs (default: drain the whole log)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--telemetry",
        type=str,
        default="",
        metavar="PATH",
        help="write a JSONL telemetry event log (serve.* events + spans)",
    )
    p_run.add_argument(
        "--telemetry-max-mb",
        type=float,
        default=0.0,
        metavar="MB",
        help="rotate the telemetry log when a segment reaches this size "
        "(default: 0 = never; readers stitch rotated segments back)",
    )
    p_run.add_argument(
        "--telemetry-backups",
        type=int,
        default=3,
        metavar="N",
        help="rotated segments to keep (with --telemetry-max-mb; default 3)",
    )
    p_run.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live Prometheus/JSON metrics on this port "
        "(/metrics, /healthz, /varz; 0 = ephemeral)",
    )
    p_run.add_argument(
        "--metrics-host",
        type=str,
        default="127.0.0.1",
        metavar="HOST",
        help="bind address for --metrics-port (default: 127.0.0.1)",
    )
    p_run.add_argument(
        "--slo",
        action="append",
        default=None,
        metavar="RULE",
        help="SLO rule '[name:] metric op value [for N] [! severity]', "
        "e.g. 'decision_p95_s < 0.25 ! unhealthy' (repeatable; default: "
        "stock latency + benefit-drop rules)",
    )
    p_run.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between epochs so a replayed log runs long enough "
        "to watch live (default: 0 = full speed)",
    )
    p_run.add_argument(
        "--checkpoint",
        type=str,
        default="",
        metavar="PATH",
        help="pickle the service here every --checkpoint-every epochs",
    )
    p_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="epochs between checkpoints (with --checkpoint; default 0 = "
        "only at the end of the run)",
    )
    p_run.add_argument(
        "--resume",
        type=str,
        default="",
        metavar="CKPT",
        help="resume a serve run from a checkpoint; it keeps the "
        "checkpoint's configuration (problem flags are ignored, admission/"
        "breaker/SLO flags rejected; --events adds more churn)",
    )
    p_run.add_argument(
        "--wal",
        type=str,
        default="",
        metavar="PATH",
        help="write-ahead event journal; with --checkpoint this makes the "
        "run recoverable after SIGKILL via `repro serve recover` (with "
        "--resume: the run's existing journal, appended to)",
    )
    p_run.add_argument(
        "--priority-map",
        type=str,
        default=None,
        metavar="SPEC",
        help="per-stream priority classes 'sid=prio,...,default=P' "
        "(higher = more important); enables benefit-aware eviction of "
        "strictly lower classes when capacity runs out",
    )
    p_run.add_argument(
        "--join-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="token-bucket join guard: sustained admissions per epoch "
        "(excess joins are shed; default: unlimited)",
    )
    p_run.add_argument(
        "--join-burst",
        type=float,
        default=None,
        metavar="N",
        help="token-bucket burst capacity (default: 2x --join-rate)",
    )
    p_run.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="shed joins while the event backlog exceeds N "
        "(default: no limit)",
    )
    p_run.add_argument(
        "--protect-priority",
        type=int,
        default=None,
        metavar="P",
        help="joins at or above this class bypass queue-depth/remediation "
        "shedding (default: shed every class)",
    )
    p_run.add_argument(
        "--breaker",
        action="store_true",
        default=None,
        help="enable the full-solve circuit breaker (exception failures "
        "only unless --breaker-deadline is set)",
    )
    p_run.add_argument(
        "--breaker-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="full-solve duration budget; breaches count as breaker "
        "failures (implies --breaker)",
    )
    p_run.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        metavar="N",
        help="consecutive failures that open the breaker (default: 3)",
    )
    p_run.add_argument(
        "--breaker-cooldown",
        type=int,
        default=8,
        metavar="N",
        help="epochs the breaker stays open before probing (default: 8)",
    )
    p_run.add_argument(
        "--breaker-probes",
        type=int,
        default=1,
        metavar="N",
        help="successful half-open probes needed to re-close (default: 1)",
    )
    p_run.add_argument(
        "--brownout-slo",
        action="append",
        default=None,
        metavar="RULE",
        help="SLO rule (same grammar as --slo) whose alert drops the "
        "service into brownout until it resolves (repeatable)",
    )
    p_run.set_defaults(func=_cmd_serve_run)

    p_rec = serve_sub.add_parser(
        "recover",
        help="rebuild a crashed serve run from checkpoint + WAL and "
        "verify bit-identity against the journal",
    )
    p_rec.add_argument(
        "--wal", type=str, required=True, metavar="PATH",
        help="write-ahead journal from the crashed `serve run --wal`",
    )
    p_rec.add_argument(
        "--checkpoint", type=str, default="", metavar="CKPT",
        help="the crashed run's checkpoint (skips already-absorbed "
        "events; default: rebuild from the WAL meta record)",
    )
    p_rec.add_argument(
        "--save-checkpoint", type=str, default="", metavar="PATH",
        help="write the recovered service state here when done",
    )
    p_rec.add_argument(
        "--telemetry", type=str, default="", metavar="PATH",
        help="write the recovered run's JSONL telemetry (for "
        "`repro serve report`)",
    )
    p_rec.set_defaults(func=_cmd_serve_recover)

    p_gen = serve_sub.add_parser(
        "loadgen", help="generate a seeded churn event log"
    )
    p_gen.add_argument("--streams", type=int, default=6)
    p_gen.add_argument("--servers", type=int, default=4)
    _add_churn_args(p_gen)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument(
        "-o",
        "--output",
        type=str,
        default="events.json",
        metavar="PATH",
        help="event log destination (default: events.json)",
    )
    p_gen.set_defaults(func=_cmd_serve_loadgen)

    p_top = serve_sub.add_parser(
        "top", help="live terminal dashboard for a running serve process"
    )
    p_top.add_argument(
        "--url",
        type=str,
        default="",
        metavar="URL",
        help="metrics endpoint base URL (overrides --host/--port)",
    )
    p_top.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="metrics host (default: 127.0.0.1)",
    )
    p_top.add_argument(
        "--port", type=int, default=9109,
        help="metrics port of the serve run (default: 9109)",
    )
    p_top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    p_top.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="draw N frames then exit (default: 0 = until Ctrl-C)",
    )
    p_top.add_argument(
        "--no-color", action="store_true", help="plain output, no ANSI color"
    )
    p_top.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (log-friendly)",
    )
    p_top.set_defaults(func=_cmd_serve_top)

    p_rep = serve_sub.add_parser(
        "report", help="summarize a serve run's telemetry log"
    )
    p_rep.add_argument("log", type=str, help="telemetry JSONL from `serve run`")
    p_rep.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    p_rep.add_argument(
        "--max-p95",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) if p95 decision latency exceeds this budget",
    )
    p_rep.add_argument(
        "--max-drop",
        type=float,
        default=None,
        metavar="RATIO",
        help="fail (exit 1) if benefit dropped by more than this fraction "
        "of the warm-up benefit over the run (overload gate)",
    )
    p_rep.set_defaults(func=_cmd_serve_report)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro``.

    Each subsystem contributes its commands through a ``_register_*``
    function; adding a command family means adding one registration
    call here, not editing a monolithic block.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PaMO reproduction: preference-aware EVA scheduling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _register_core(sub)
    _register_figures(sub)
    _register_obs(sub)
    _register_resilience(sub)
    _register_bench(sub)
    _register_serve(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Registered scheduler names double as top-level commands:
    ``repro pamo --telemetry run.jsonl`` is shorthand for
    ``repro optimize --method pamo --telemetry run.jsonl``.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and not argv[0].startswith("-"):
        from repro.baselines import available_schedulers

        if argv[0].lower() in available_schedulers():
            argv = ["optimize", "--method", argv[0]] + argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `repro report ... | head`);
        # park stdout on devnull so interpreter shutdown stays quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
