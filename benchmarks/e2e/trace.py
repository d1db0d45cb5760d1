"""Benchmark-side span tracer: per-layer self time from outside the program.

The traced run patches the public functions of each layer where they
are looked up (class attributes for methods; every ``repro.*`` module
global bound to the function for plain functions, e.g.
``repro.core.problem.group_streams``), so calls made from inside the
program are caught too.  Spans live in memory — name, layer, start,
end, parent id and the unit (decision or replay) that caused them — and
are written once, at the end, to ``spans.json``.

A call into a layer from inside the same layer opens no span (it is
part of the outer span's work), so ``calls`` counts entries into a
layer from elsewhere.  Counter hooks still run on such nested calls.

The program's own ``repro.obs.telemetry`` stays disabled; single
threaded only (the stack is not synchronised).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Iterable


def _feasible_counts(args, kwargs, result):
    yield "core.problem.is_feasible", 1
    if result is False:
        yield "core.problem.infeasible", 1


def _schedule_counts(args, kwargs, result):
    if kwargs.get("strict"):
        yield "core.problem.strict_schedules", 1


def _sim_counts(args, kwargs, result):
    if result is not None:
        yield "sim.frames", sum(m.frames_completed for m in result.streams.values())


def _join_counts(args, kwargs, result):
    yield "serve.admission.requests", 1
    if result is not None:
        yield f"serve.admission.{result.action}", 1
        yield "serve.admission.evicted", len(result.evicted)


#: (layer, module, function or Class.method, optional counter hook).
#: A hook gets ``(args, kwargs, result)`` — ``result`` is None when the
#: call raised — and yields ``(counter, increment)`` pairs.
SPAN_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("core.pamo", "repro.core.pamo", "PaMO.optimize", None),
    ("core.pamo", "repro.core.pamo", "PaMO.fit_outcome_models", None),
    ("core.pamo", "repro.core.pamo", "PaMO.fit_preference_model", None),
    ("bo.loop", "repro.bo.loop", "BOLoop.run", None),
    # Methods are patched on the class and on every subclass overriding
    # them (here FallbackAcquisition, ThompsonSampling, ...).
    ("bo.acquisition", "repro.bo.acquisition", "AcquisitionFunction.select_batch", None),
    ("outcomes.surrogate", "repro.outcomes.surrogate", "OutcomeSurrogateBank.fit", None),
    ("outcomes.surrogate", "repro.outcomes.surrogate", "OutcomeSurrogateBank.update", None),
    ("outcomes.surrogate", "repro.outcomes.surrogate",
     "OutcomeSurrogateBank.sample_per_stream", None),
    ("outcomes.surrogate", "repro.outcomes.surrogate",
     "OutcomeSurrogateBank.predict_per_stream", None),
    ("pref.learner", "repro.pref.learner", "PreferenceLearner.initialize", None),
    ("pref.learner", "repro.pref.learner", "PreferenceLearner.run", None),
    ("pref.learner", "repro.pref.learner", "PreferenceLearner.compare_against", None),
    ("pref.learner", "repro.pref.learner", "PreferenceLearner.utility", None),
    ("pref.learner", "repro.pref.learner",
     "PreferenceLearner.utility_with_uncertainty", None),
    ("core.problem", "repro.core.problem", "EVAProblem.evaluate", None),
    ("core.problem", "repro.core.problem", "EVAProblem.evaluate_measured", None),
    ("core.problem", "repro.core.problem", "EVAProblem.is_feasible", _feasible_counts),
    ("core.problem", "repro.core.problem", "EVAProblem.schedule", _schedule_counts),
    ("core.problem", "repro.core.problem", "EVAProblem.make_streams", None),
    ("sched.grouping", "repro.sched.grouping", "group_streams", None),
    ("sched.assignment", "repro.sched.assignment", "resolve_assignment", None),
    ("sim", "repro.sim.runner", "simulate_schedule", _sim_counts),
    ("serve.service", "repro.serve.service", "SchedulerService.start", None),
    ("serve.service", "repro.serve.service", "SchedulerService.submit", None),
    ("serve.service", "repro.serve.service", "SchedulerService.run", None),
    ("serve.admission", "repro.serve.admission", "AdmissionController.request_join",
     _join_counts),
    *(
        ("serve.engine", "repro.serve.engine", f"IncrementalPlanner.{name}", None)
        for name in (
            "solve_all", "rebuild", "admit", "add_stream", "remove_stream",
            "server_down", "server_up", "set_bandwidth_factor", "outcome",
            "stream_assignment", "decision_arrays", "eviction_scores",
        )
    ),
    ("serve.wal", "repro.serve.wal", "WriteAheadLog.append_event", None),
    ("serve.wal", "repro.serve.wal", "WriteAheadLog.append_epoch", None),
    ("serve.wal", "repro.serve.wal", "WriteAheadLog.sync", None),
    ("obs", "repro.obs.health", "HealthMonitor.evaluate", None),
    ("obs", "repro.obs.exposition", "render_prometheus", None),
)

#: Every layer, in report order.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p[0] for p in SPAN_POINTS))


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return list(dict.fromkeys(out))


class Tracer:
    """Patches :data:`SPAN_POINTS` while installed and records spans.

    Use as a context manager around the traced work; set :attr:`unit`
    to the index of the decision or replay in flight so its spans share
    an identifier.
    """

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.unit = -1
        # (span id, parent id, layer, name, start, end, unit)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def _wrap(self, fn, layer: str, name: str, hook):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def count(args, kwargs, result):
            for key, n in hook(args, kwargs, result):
                self.counters[key] = self.counters.get(key, 0) + n

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opens = not stack or stack[-1][1] != layer
            if opens:
                sid = self._next_id
                self._next_id += 1
                parent = stack[-1][0] if stack else -1
                stack.append((sid, layer))
                t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if opens:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, layer, name, t0, t1, self.unit))
                if hook is not None:
                    count(args, kwargs, result)

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for layer, module, qualname, hook in SPAN_POINTS:
            mod = importlib.import_module(module)
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                base = getattr(mod, cls_name)
                for klass in (base, *_subclasses(base)):
                    if meth in klass.__dict__:
                        wrapped = self._wrap(
                            klass.__dict__[meth], layer, f"{klass.__name__}.{meth}", hook
                        )
                        self._patch(klass, meth, wrapped)
                continue
            fn = getattr(mod, qualname)
            traced = self._wrap(fn, layer, qualname, hook)
            for name, other in list(sys.modules.items()):
                in_program = name == "repro" or name.startswith("repro.")
                if in_program and other.__dict__.get(qualname) is fn:
                    self._patch(other, qualname, traced)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    def layer_stats(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "self_s"}}`` for every layer in :data:`LAYERS`."""
        return layer_stats(self.spans)

    def write(self, path: Path, **meta) -> None:
        """Write ``spans.json``: metadata plus one list per span."""
        doc = {
            "run_id": self.run_id,
            **meta,
            "fields": ["id", "parent", "layer", "name", "start", "end", "unit"],
            "spans": sorted(self.spans),
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def layer_stats(spans: Iterable[tuple]) -> dict[str, dict[str, float]]:
    """Calls and self time per layer.

    A span's self time is its duration minus the durations of its
    direct children, which on one thread lie inside it.
    """
    spans = list(spans)
    child_s: dict[int, float] = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
    stats = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for sid, _, layer, _, t0, t1, _ in spans:
        entry = stats.setdefault(layer, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (t1 - t0) - child_s.get(sid, 0.0)
    return stats
