"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``optimize`` — build an EVA problem and run a scheduler on it,
  printing the per-stream decision and outcome; ``--telemetry PATH``
  writes a JSONL event log and ``--profile`` adds cProfile summaries.
  Registered scheduler names are accepted as top-level shorthand
  (``repro pamo --telemetry run.jsonl``);
* ``figure`` — regenerate one of the paper's figures (the ids of
  ``_FIGURE_TABLE``) and print its table;
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

The parser is built from two tables: ``_COMMANDS`` (name, help,
handler) and ``_FLAGS``, one :class:`_Flag` row per argument of each
command, which also carries the ``serve run`` spec key, the flags that
switch a tuning flag's feature on, and whether ``--resume`` refuses it.
``_FIGURE_TABLE`` dispatches ``figure``.  Command spellings are stable.
"""

from __future__ import annotations

import argparse
import contextlib
import pickle
import sys
from dataclasses import dataclass, fields
from functools import partial
from typing import Any, Callable, Sequence

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
    print(f"figures: {', '.join(_FIGURE_TABLE)}")
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.baselines import make_scheduler
    from repro.bench.reporting import format_table
    from repro.core import EVAProblem, make_preference
    from repro.obs import telemetry

    resume_state = None
    if args.resume:
        from repro.resilience.checkpoint import load_checkpoint

        try:
            ckpt = load_checkpoint(args.resume)
        except (OSError, ValueError, EOFError, pickle.UnpicklingError) as exc:
            print(f"error: cannot resume from {args.resume}: {exc}", file=sys.stderr)
            return 2
        scheduler = ckpt.scheduler
        resume_state = ckpt.bo_state
        problem = scheduler.problem
        bw = [float(b) for b in problem.bandwidths_mbps]
        pref = getattr(scheduler.decision_maker, "preference", None)
        if pref is None:
            pref = make_preference(problem)
        print(
            f"resuming {scheduler.name} from {args.resume} "
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
        if args.checkpoint:
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

    with _telemetry_session(
        args.telemetry, profile=args.profile, method=args.method, seed=args.seed
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
    if args.telemetry or args.profile:
        report = telemetry.report()
        spans = report.get("spans", {})
        total = spans.get("cli.optimize", {}).get("total_s", 0.0)
        print(
            f"telemetry: trace {telemetry.trace_id} — "
            f"{len(report.get('counters', {}))} counters, "
            f"{len(spans)} spans, optimize took {total:.3f}s"
        )
        if args.telemetry:
            print(f"telemetry events written to {args.telemetry}")
            print(f"inspect with: repro report {args.telemetry}")
        if args.profile and report.get("profile"):
            print("top functions (cumulative):")
            for row in report["profile"]["top"][:5]:
                print(f"  {row['cumtime_s']:8.3f}s  {row['function']}")
    return 0


def _show_fig2(data, bench):
    clip = [k for k in data if k.startswith("mot")][0]
    rows = [
        [r] + list(np.round(data[clip]["accuracy"][i], 3))
        for i, r in enumerate(data["resolutions"])
    ]
    print(
        bench.format_table(
            ["res\\fps"] + [str(f) for f in data["fps_values"]],
            rows,
            title=f"Fig.2 mAP surface ({clip})",
        )
    )
    for metric in ("accuracy", "network_mbps", "power_watts"):
        print()
        print(
            bench.format_heatmap(
                data[clip][metric],
                row_labels=[int(r) for r in data["resolutions"]],
                col_labels=[str(int(f)) for f in data["fps_values"]],
                title=f"{metric} (rows: resolution, cols: fps)",
            )
        )
    return data


def _show_fig3(b, bench):
    """Fig. 3b's Pareto front, after Fig. 3a, which has no size to scale."""
    a = bench.fig3a_contention()
    print(
        f"Fig.3a: queueing delay frame 1 = {a['video2_delays'][0]:.2f}s, "
        f"last = {a['video2_delays'][-1]:.2f}s"
    )
    print(f"Fig.3b: Pareto front size = {len(b['pareto_indices'])}")
    return {"fig3a": a, "fig3b": b}


def _show_fig4(d, bench):
    print(
        f"Fig.4: naive jitter = {d['bad_assignment_jitter'] * 1e3:.1f} ms, "
        f"Algorithm 1 jitter = {d['algorithm1_jitter'] * 1e3:.4f} ms"
    )
    return d


def _show_fig6(recs, bench):
    rows = [
        [f"w_{r['objective']}={r['weight']}"]
        + [round(r["normalized"][m], 3) for m in ("JCAB", "FACT", "PaMO", "PaMO+")]
        for r in recs
    ]
    print(bench.format_table(["setting", "JCAB", "FACT", "PaMO", "PaMO+"], rows, title="Fig.6"))
    return recs


def _show_fig7(d, bench):
    for key, label in (("by_nodes", "nodes"), ("by_videos", "videos")):
        series = {
            m: [r["normalized"][m] for r in d[key]]
            for m in ("JCAB", "FACT", "PaMO", "PaMO+")
        }
        print(bench.format_series(label, [r["setting"] for r in d[key]], series))
    return d


def _show_fig8(d, bench):
    print(bench.format_series("train size", d["train_sizes"], d["r2"], title="Fig.8 R²"))
    return d


def _show_fig9(d, bench):
    print(
        bench.format_series(
            "pairs", d["pair_counts"], {"accuracy": d["accuracy"]}, title="Fig.9"
        )
    )
    return d


def _show_fig10(recs, bench, *, knob: str, column: str, title: str):
    rows = [
        [r["config"], r[knob], round(r["JCAB"], 3), round(r["FACT"], 3),
         round(r["PaMO"], 3), round(r["PaMO+"], 3)]
        for r in recs
    ]
    header = ["config", column, "JCAB", "FACT", "PaMO", "PaMO+"]
    print(bench.format_table(header, rows, title=title))
    return recs


#: Figure id -> (``repro.bench`` function, ``--quick`` kwargs, full kwargs,
#: renderer).  The function's defaults are the paper's sizes, so the full
#: kwargs only name where the CLI departs from them.  The function is
#: looked up on ``repro.bench`` by name when the figure runs; the renderer
#: prints its table and returns the data ``--output`` saves.  ``figure``'s
#: id check and help and ``info``'s figure list all read this table.
_FIGURE_TABLE = {
    "2": (
        "fig2_profiling_surfaces",
        dict(resolutions=(400, 1200, 2000), fps_values=(2, 15, 30), n_frames=24),
        {},
        _show_fig2,
    ),
    "3": ("fig3b_pareto", dict(n_decisions=20), dict(n_decisions=60), _show_fig3),
    "4": ("fig4_jitter", {}, {}, _show_fig4),
    "6": (
        "fig6_preference_sweep",
        dict(weight_values=(0.2, 3.2), objectives=("acc",), n_streams=4, n_servers=3),
        {},
        _show_fig6,
    ),
    "7": ("fig7_scaling", dict(node_counts=(5,), video_counts=(7,)), {}, _show_fig7),
    "8": ("fig8_outcome_r2", dict(train_sizes=(20, 40), n_reps=1), {}, _show_fig8),
    "9": (
        "fig9_preference_accuracy",
        dict(pair_counts=(3, 18), n_test_pairs=100, n_reps=1),
        {},
        _show_fig9,
    ),
    "10a": (
        "fig10a_weight_sensitivity",
        dict(weight_values=(0.1, 1.0, 5.0), configs=((3, 4),)),
        {},
        partial(_show_fig10, knob="weight", column="w", title="Fig.10a"),
    ),
    "10b": (
        "fig10b_threshold_sensitivity",
        dict(deltas=(0.02, 0.2), configs=((3, 4),)),
        dict(configs=((5, 8),)),
        partial(_show_fig10, knob="delta", column="delta", title="Fig.10b"),
    ),
}


def _cmd_figure(args: argparse.Namespace) -> int:
    fig = args.id
    if fig not in _FIGURE_TABLE:
        print(
            f"error: unknown figure {fig!r}; choose from {sorted(_FIGURE_TABLE)}",
            file=sys.stderr,
        )
        return 2
    import repro.bench as bench

    name, quick, full, render = _FIGURE_TABLE[fig]
    with _telemetry_session(args.telemetry, figure=fig):
        data = getattr(bench, name)(**(quick if args.quick else full))
        saved_data = render(data, bench)
        if args.output:
            path = bench.save_results(bench.experiment_record(saved_data), args.output)
            print(f"results written to {path}")
    if args.telemetry:
        from repro.obs import telemetry

        print(f"telemetry: trace {telemetry.trace_id}")
        print(f"telemetry events written to {args.telemetry}")
        print(f"inspect with: repro report {args.telemetry}")
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
    from repro.resilience import ChaosRunner, faults

    try:
        bw = _parse_bandwidths(args, args.servers)
        problem = EVAProblem(n_streams=args.streams, bandwidths_mbps=bw)
        pref = make_preference(problem, weights=_parse_weights(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.faults:
            plan = faults.from_specs(
                [s for s in args.faults.split(",") if s.strip()]
            )
        else:
            plan = faults.random(
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
    with _telemetry_session(args.telemetry, method=args.method, seed=args.seed):
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
    if args.telemetry:
        print(f"telemetry events written to {args.telemetry}")
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


@dataclass(frozen=True)
class _Flag:
    """One command-line argument, stated once: its argparse keywords and
    what it sets.

    ``default`` applies when the flag is absent.  ``key`` is the
    :func:`~repro.serve.service_spec` key it sets (``admission.<k>`` and
    ``breaker.<k>`` inside those dicts) or ``churn.<field>`` of
    :class:`~repro.serve.ChurnProfile`, whose dataclass default is then
    the flag's default.  A flag in ``needs`` switches on the feature this
    one tunes: given without any of them the flag would do nothing, so
    it is an error.  ``fixed``: the flag configures a fresh service, and
    a resumed run keeps its checkpoint's configuration, so ``--resume``
    refuses it.
    """

    flag: str
    type: Callable | None = None
    default: Any = None
    metavar: str | None = None
    help: str | None = None
    action: str | None = None
    choices: tuple | None = None
    nargs: str | None = None
    required: bool | None = None
    short: str = ""
    key: str = ""
    needs: tuple[str, ...] = ()
    fixed: bool = False

    @property
    def dest(self) -> str:
        return _dest(self.flag)

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        """Register the flag; it parses to None when absent (see :func:`_settle_flags`)."""
        keywords = dict(
            type=self.type, action=self.action, metavar=self.metavar, help=self.help,
            choices=self.choices, nargs=self.nargs, required=self.required,
        )
        parser.add_argument(
            *filter(None, (self.short, self.flag)),
            default=None,
            **{k: v for k, v in keywords.items() if v is not None},
        )


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


#: ``command -> {flag: the flags it replaces}``: ``chaos --faults`` is
#: the whole plan, so the random-plan flags would be ignored.
_OVERRIDES = {"chaos": {"--faults": ("--n-faults", "--horizon")}}


def _settle_flags(args: argparse.Namespace) -> None:
    """Check the command's parsed flags and fill in the absent ones' defaults.

    Every flag parses to None when absent, so a given flag is told from
    a default here.  Raises :class:`_UsageError` for a flag ``--resume``
    refuses, for a flag given without any flag in its ``needs`` and for
    a flag given with one that :data:`_OVERRIDES` says replaces it.  An
    empty value (``--priority-map ''``) switches nothing on.
    """
    flags = _FLAGS.get(args.flag_command, ())
    given = {f.flag for f in flags if getattr(args, f.dest) is not None}
    refused = [f.flag for f in flags if f.fixed and f.flag in given]
    if refused and _switched_on(args, ("--resume",)):
        raise _UsageError(
            f"{', '.join(refused)} cannot be combined with --resume: "
            f"a resumed run keeps its checkpoint's configuration"
        )
    for f in flags:
        if f.needs and f.flag in given and not _switched_on(args, f.needs):
            *others, last = f.needs
            either = f"{', '.join(others)} or {last}" if others else last
            raise _UsageError(f"{f.flag} has no effect without {either}")
    for flag, replaced in _OVERRIDES.get(args.flag_command, {}).items():
        clash = [f for f in replaced if f in given]
        if clash and _switched_on(args, (flag,)):
            verb = "has" if len(clash) == 1 else "have"
            raise _UsageError(f"{', '.join(clash)} {verb} no effect with {flag}")
    for f in flags:
        if getattr(args, f.dest) is None:
            setattr(args, f.dest, _default(f))


def _default(flag: _Flag) -> Any:
    """``flag.default``, or for a churn flag its ChurnProfile field's default."""
    section, _, name = flag.key.rpartition(".")
    if section != "churn":
        return flag.default
    from repro.serve import ChurnProfile

    return next(f.default for f in fields(ChurnProfile) if f.name == name)


def _section(args: argparse.Namespace, section: str) -> dict:
    """``{key: value}`` of the command's flags keyed under ``section``
    (``""``: the top-level spec keys)."""
    return {
        f.key.rpartition(".")[2]: getattr(args, f.dest)
        for f in _FLAGS[args.flag_command]
        if f.key and f.key.rpartition(".")[0] == section
    }


def _switched_on(args: argparse.Namespace, flags: tuple[str, ...]) -> bool:
    return any(getattr(args, _dest(flag)) not in (None, "") for flag in flags)


def _flag_message(args: argparse.Namespace, exc: ValueError) -> str:
    """``exc``'s message with a leading spec key or churn field named as its flag."""
    msg = str(exc)
    keyword, _, rest = msg.partition(" ")
    for f in _FLAGS[args.flag_command]:
        if f.key and f.key.rpartition(".")[2] == keyword:
            return f"{f.flag} {rest}"
    return msg


def _cmd_serve_loadgen(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.serve import ChurnProfile, generate_load

    try:
        log = generate_load(
            args.streams,
            args.servers,
            profile=ChurnProfile(**_section(args, "churn")),
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {_flag_message(args, exc)}", file=sys.stderr)
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
    if _switched_on(args, _ADMISSION_ON):
        tuning = _section(args, "admission")
        try:
            priority_map, default_priority = parse_priority_map(
                tuning.pop("priority_map") or ""
            )
        except ValueError as exc:
            raise ValueError(f"bad --priority-map: {exc}") from None
        admission = {
            "priority_map": priority_map,
            "default_priority": default_priority,
            **tuning,
        }
    breaker = None
    if _switched_on(args, _BREAKER_ON):
        breaker = _section(args, "breaker")
        # CircuitBreaker's keyword order, deadline last, so the journaled
        # meta record of a flag set stays byte-stable.
        breaker["deadline_s"] = breaker.pop("deadline_s")
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
    spec = _section(args, "")  # the keys below are built from their flags
    spec.update(
        n_streams=n_streams,
        bandwidths_mbps=_parse_bandwidths(args, n_servers),
        weights=_parse_weights(args),
        admission=admission,
        breaker=breaker,
        slo=slo or None,
        remediation=remediation,
    )
    return service_spec(**spec)


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
    from repro.obs import telemetry
    from repro.serve import (
        ChurnProfile,
        EventLog,
        SchedulerService,
        ServeSummary,
        build_service,
        generate_load,
    )

    log = None
    if args.events:
        try:
            log = EventLog.load(args.events)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: cannot load {args.events}: {exc}", file=sys.stderr)
            return 2
    spec = None
    if args.resume:
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
            if log is None:
                profile = ChurnProfile(**_section(args, "churn"))
                log = generate_load(n_streams, n_servers, profile=profile, seed=args.seed)
        except ValueError as exc:
            print(f"error: {_flag_message(args, exc)}", file=sys.stderr)
            return 2

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

    method = getattr(service.scheduler_factory, "method", "") or "greedy (engine)"
    summary = ServeSummary(
        path=args.telemetry,
        trace_id=telemetry.trace_id if args.telemetry else None,
        stats=service.stats,
        n_streams_last=len(service.planner.entries),
        alerts=service.alerts,
    )
    extra = [("alive servers", service.planner.n_alive)]
    if service.breaker is not None:
        extra.append(
            ("breaker", f"{service.breaker.state} (opened {service.breaker.opens}x)")
        )
    if service.monitor is not None:
        extra.append(("health", service.monitor.state))
    if args.checkpoint:
        extra.append(("checkpoint", f"written to {args.checkpoint}"))
    print(
        summary.render(
            title=f"serve run: {summary.epochs} epochs, method {method}", extra=extra
        )
    )
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
    with _telemetry_session(args.telemetry, command="serve.recover", seed=0):
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
    if args.telemetry:
        print(f"telemetry events written to {args.telemetry}")
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
    if args.max_drop is not None:
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


_STREAMS = _Flag("--streams", int, 6, key="n_streams")
_SERVERS = _Flag("--servers", int, 4)
_PROBLEM = (
    _STREAMS,
    _SERVERS,
    _Flag("--bandwidths", str, "", help="comma list of Mbps per server", key="bandwidths_mbps"),
    _Flag("--weights", str, "", help="comma list: ltc,acc,net,com,eng", key="weights"),
)
_SEED = _Flag("--seed", int, 0, key="seed")
_LOG = _Flag("log", str, help="telemetry JSONL file")
_CHURN = (
    _Flag("--hours", float, help="simulated duration (default: 1)", key="churn.hours"),
    _Flag("--arrivals-per-hour", float, None, "RATE",
          "stream joins per simulated hour (default: 100)", key="churn.arrivals_per_hour"),
    _Flag("--departures-per-hour", float, None, "RATE",
          "stream leaves per simulated hour (default: 100)", key="churn.departures_per_hour"),
    _Flag("--drifts-per-hour", float, None, "RATE",
          "bandwidth drifts per simulated hour (default: 10)", key="churn.drifts_per_hour"),
    _Flag("--flaps-per-hour", float, None, "RATE",
          "server down/up flaps per simulated hour (default: 2)", key="churn.flaps_per_hour"),
    _Flag("--burst-start", float, None, "SECONDS",
          "flash crowd: arrival rate multiplies by --burst-multiplier "
          "from this simulated time (default: no burst)", key="churn.burst_start_s"),
    _Flag("--burst-duration", float, None, "SECONDS", "flash-crowd window length (default: 120)",
          key="churn.burst_duration_s", needs=("--burst-start",)),
    _Flag("--burst-multiplier", float, None, "X",
          "arrival-rate multiplier inside the burst window (default: 1)",
          key="churn.burst_multiplier", needs=("--burst-start",)),
    _Flag("--diurnal-amplitude", float, None, "A",
          "sinusoidal arrival swing amplitude in [0, 1) (default: 0)",
          key="churn.diurnal_amplitude"),
    _Flag("--diurnal-period", float, None, "SECONDS", "diurnal cycle period (default: 3600)",
          key="churn.diurnal_period_s", needs=("--diurnal-amplitude",)),
)
_ADMISSION_ON = ("--priority-map", "--join-rate", "--max-queue-depth")
_BREAKER_ON = ("--breaker", "--breaker-deadline")

#: Every command's arguments, in ``--help`` order.
_FLAGS = {
    "optimize": (
        *_PROBLEM,
        _Flag("--method", str, "pamo", help="registered scheduler name (see `repro info`)"),
        _SEED,
        _Flag("--telemetry", str, "", "PATH",
              "write a JSONL telemetry event log (per-BO-iteration records)"),
        _Flag("--profile", default=False, action="store_true",
              help="run the scheduler under cProfile and print top functions"),
        _Flag("--checkpoint", str, "", "PATH",
              "pickle a resumable checkpoint here every --checkpoint-every iterations"),
        _Flag("--checkpoint-every", int, 2, "N",
              "BO iterations between checkpoints (with --checkpoint; default 2)",
              needs=("--checkpoint",)),
        _Flag("--resume", str, "", "CKPT",
              "resume an interrupted run from a checkpoint (ignores problem flags)"),
    ),
    "figure": (
        _Flag("id", str, help="|".join(_FIGURE_TABLE)),
        _Flag("--quick", default=False, action="store_true", help="reduced sizes"),
        _Flag("--output", str, "", help="write results JSON to this path"),
        _Flag("--telemetry", str, "", "PATH",
              "record telemetry (JSONL events here; summary in --output JSON)"),
    ),
    "report": (
        _LOG,
        _Flag("--format", default="text", help="output format (default: text)",
              choices=("text", "json", "markdown")),
    ),
    "compare": (
        _Flag("baseline", str, help="baseline telemetry JSONL"),
        _Flag("candidate", str, help="candidate telemetry JSONL"),
        _Flag("--threshold", str, "10%",
              help="regression threshold, e.g. 10%% or 0.1 (default: 10%%)"),
    ),
    "trace": (
        _LOG,
        _Flag("--output", str, "", help="output path (default: <log>.trace.json)", short="-o"),
    ),
    "chaos": (
        *_PROBLEM,
        _Flag("--method", str, "pamo", help="registered scheduler name"),
        _SEED,
        _Flag("--faults", str, "",
              help="comma list of fault specs <kind>:<target>@<time>[x<value>], "
              "e.g. 'crash:1@0.5,bw:0@2.0x0.25,recover:1@4.0'; "
              "empty = seeded random plan"),
        _Flag("--n-faults", int, 3, help="events in the random plan"),
        _Flag("--horizon", float, 10.0, help="random-plan time horizon (s)"),
        _Flag("--max-drop", float, None, "FRAC",
              "fail (exit 1) if the worst benefit drop exceeds this fraction"),
        _Flag("--output", str, "", help="write the chaos report JSON here"),
        _Flag("--telemetry", str, "", "PATH",
              "write a JSONL telemetry event log (chaos.* events)"),
    ),
    "bench": (
        _Flag("names", help="benchmark names (default: all; see repro.bench.hotpath)", nargs="*"),
        _Flag("--profile", default="medium",
              help="sizing profile (default: medium — the acceptance config)",
              choices=("smoke", "medium")),
        _SEED,
        _Flag("--output-dir", str, ".bench_build", "DIR",
              "directory for BENCH_<name>.json records (default: .bench_build)"),
        _Flag("--check", str, "", "DIR",
              "gate against baseline BENCH_<name>.json files in DIR; "
              "exit 1 when any work counter differs"),
    ),
    "serve run": (
        *_PROBLEM,
        *_CHURN,
        _Flag("--events", str, "", "PATH",
              "event log JSON from `serve loadgen` (else generate from the "
              "churn flags); its topology overrides --streams/--servers"),
        _Flag("--method", str, "", "NAME",
              "batch scheduler for warm-up/drift full solves (registered "
              "name; default: the engine's greedy admission)", key="method"),
        _Flag("--epoch", float, 1.0, "SECONDS", "epoch clock granularity (default: 1.0)",
              key="epoch_s"),
        _Flag("--reoptimize-every", int, 0, "N",
              "force a full solve every N epochs (default: 0 = incremental only)",
              key="reoptimize_every"),
        _Flag("--max-epochs", int, None, "N",
              "stop after N event epochs (default: drain the whole log)"),
        _SEED,
        _Flag("--telemetry", str, "", "PATH",
              "write a JSONL telemetry event log (serve.* events + spans)"),
        _Flag("--telemetry-max-mb", float, 0.0, "MB",
              "rotate the telemetry log when a segment reaches this size "
              "(default: 0 = never; readers stitch rotated segments back)",
              needs=("--telemetry",)),
        _Flag("--telemetry-backups", int, 3, "N",
              "rotated segments to keep (with --telemetry-max-mb; default 3)",
              needs=("--telemetry",)),
        _Flag("--metrics-port", int, None, "PORT",
              "serve live Prometheus/JSON metrics on this port "
              "(/metrics, /healthz, /varz; 0 = ephemeral)"),
        _Flag("--metrics-host", str, "127.0.0.1", "HOST",
              "bind address for --metrics-port (default: 127.0.0.1)",
              needs=("--metrics-port",)),
        _Flag("--slo", None, None, "RULE",
              "SLO rule '[name:] metric op value [for N] [! severity]', "
              "e.g. 'decision_p95_s < 0.25 ! unhealthy' (repeatable; default: "
              "stock latency + benefit-drop rules)",
              action="append", key="slo", fixed=True),
        _Flag("--pace", float, 0.0, "SECONDS",
              "sleep between epochs so a replayed log runs long enough "
              "to watch live (default: 0 = full speed)"),
        _Flag("--checkpoint", str, "", "PATH",
              "pickle the service here every --checkpoint-every epochs"),
        _Flag("--checkpoint-every", int, 0, "N",
              "epochs between checkpoints (with --checkpoint; default 0 = "
              "only at the end of the run)", needs=("--checkpoint",)),
        _Flag("--resume", str, "", "CKPT",
              "resume a serve run from a checkpoint; it keeps the "
              "checkpoint's configuration (problem flags are ignored, admission/"
              "breaker/SLO flags rejected; --events adds more churn)"),
        _Flag("--wal", str, "", "PATH",
              "write-ahead event journal; with --checkpoint this makes the "
              "run recoverable after SIGKILL via `repro serve recover` (with "
              "--resume: the run's existing journal, appended to)"),
        _Flag("--priority-map", str, None, "SPEC",
              "per-stream priority classes 'sid=prio,...,default=P' "
              "(higher = more important); enables benefit-aware eviction of "
              "strictly lower classes when capacity runs out",
              key="admission.priority_map", fixed=True),
        _Flag("--join-rate", float, None, "RATE",
              "token-bucket join guard: sustained admissions per epoch "
              "(excess joins are shed; default: unlimited)",
              key="admission.join_rate_per_epoch", fixed=True),
        _Flag("--join-burst", float, None, "N",
              "token-bucket burst capacity (default: 2x --join-rate)",
              key="admission.join_burst", needs=_ADMISSION_ON, fixed=True),
        _Flag("--max-queue-depth", int, None, "N",
              "shed joins while the event backlog exceeds N (default: no limit)",
              key="admission.max_queue_depth", fixed=True),
        _Flag("--protect-priority", int, None, "P",
              "joins at or above this class bypass queue-depth/remediation "
              "shedding (default: shed every class)",
              key="admission.protect_priority", needs=_ADMISSION_ON, fixed=True),
        _Flag("--breaker", action="store_true",
              help="enable the full-solve circuit breaker (exception failures "
              "only unless --breaker-deadline is set)", key="breaker", fixed=True),
        _Flag("--breaker-deadline", float, None, "SECONDS",
              "full-solve duration budget; breaches count as breaker "
              "failures (implies --breaker)", key="breaker.deadline_s", fixed=True),
        _Flag("--breaker-failures", int, 3, "N",
              "consecutive failures that open the breaker (default: 3)",
              key="breaker.failure_threshold", needs=_BREAKER_ON, fixed=True),
        _Flag("--breaker-cooldown", int, 8, "N",
              "epochs the breaker stays open before probing (default: 8)",
              key="breaker.cooldown_epochs", needs=_BREAKER_ON, fixed=True),
        _Flag("--breaker-probes", int, 1, "N",
              "successful half-open probes needed to re-close (default: 1)",
              key="breaker.probe_successes", needs=_BREAKER_ON, fixed=True),
        _Flag("--brownout-slo", None, None, "RULE",
              "SLO rule (same grammar as --slo) whose alert drops the "
              "service into brownout until it resolves (repeatable)",
              action="append", key="remediation", fixed=True),
    ),
    "serve recover": (
        _Flag("--wal", str, None, "PATH",
              "write-ahead journal from the crashed `serve run --wal`", required=True),
        _Flag("--checkpoint", str, "", "CKPT",
              "the crashed run's checkpoint (skips already-absorbed "
              "events; default: rebuild from the WAL meta record)"),
        _Flag("--save-checkpoint", str, "", "PATH",
              "write the recovered service state here when done"),
        _Flag("--telemetry", str, "", "PATH",
              "write the recovered run's JSONL telemetry (for `repro serve report`)"),
    ),
    "serve loadgen": (
        _STREAMS,
        _SERVERS,
        *_CHURN,
        _SEED,
        _Flag("--output", str, "events.json", "PATH",
              "event log destination (default: events.json)", short="-o"),
    ),
    "serve top": (
        _Flag("--url", str, "", "URL", "metrics endpoint base URL (overrides --host/--port)"),
        _Flag("--host", str, "127.0.0.1", help="metrics host (default: 127.0.0.1)"),
        _Flag("--port", int, 9109, help="metrics port of the serve run (default: 9109)"),
        _Flag("--interval", float, 1.0, "SECONDS", "refresh interval (default: 1.0)"),
        _Flag("--iterations", int, 0, "N",
              "draw N frames then exit (default: 0 = until Ctrl-C)"),
        _Flag("--no-color", default=False, action="store_true",
              help="plain output, no ANSI color"),
        _Flag("--no-clear", default=False, action="store_true",
              help="append frames instead of clearing the screen (log-friendly)"),
    ),
    "serve report": (
        _Flag("log", str, help="telemetry JSONL from `serve run`"),
        _Flag("--format", default="text", help="output format (default: text)",
              choices=("text", "json")),
        _Flag("--max-p95", float, None, "SECONDS",
              "fail (exit 1) if p95 decision latency exceeds this budget"),
        _Flag("--max-drop", float, None, "RATIO",
              "fail (exit 1) if benefit dropped by more than this fraction "
              "of the warm-up benefit over the run (overload gate)"),
    ),
}

#: ``(command, help, handler)`` in ``repro --help`` order; a command
#: without a handler groups the ``<command> <sub>`` commands after it.
_COMMANDS = (
    ("info", "package inventory", _cmd_info),
    ("optimize", "schedule streams onto servers", _cmd_optimize),
    ("figure", "regenerate a paper figure", _cmd_figure),
    ("report", "summarize a telemetry JSONL log", _cmd_report),
    ("compare", "diff two telemetry logs; exit 1 on regression", _cmd_compare),
    ("trace", "export a telemetry log to Chrome trace_event JSON", _cmd_trace),
    ("chaos", "run a scheduler under a fault plan; compare to fault-free", _cmd_chaos),
    ("bench", "time the GP/BO and serve hot paths; emit BENCH_<name>.json", _cmd_bench),
    ("serve", "event-driven online scheduler service", None),
    ("serve run", "replay a churn event log through the scheduler service", _cmd_serve_run),
    ("serve recover", "rebuild a crashed serve run from checkpoint + WAL and "
     "verify bit-identity against the journal", _cmd_serve_recover),
    ("serve loadgen", "generate a seeded churn event log", _cmd_serve_loadgen),
    ("serve top", "live terminal dashboard for a running serve process", _cmd_serve_top),
    ("serve report", "summarize a serve run's telemetry log", _cmd_serve_report),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for ``python -m repro`` from the
    :data:`_COMMANDS` and :data:`_FLAGS` tables."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PaMO reproduction: preference-aware EVA scheduling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, help, handler in _COMMANDS:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help)
        if handler is None:
            groups[name] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        for flag in _FLAGS.get(name, ()):
            flag.add_to(p)
        p.set_defaults(func=handler, flag_command=name)
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
        _settle_flags(args)
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
