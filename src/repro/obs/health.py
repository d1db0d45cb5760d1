"""Declarative SLO rules and the ok/degraded/unhealthy state machine.

A serving system's health is not one boolean: the scheduler can be
*degraded* (cache-hit ratio collapsed, benefit sagging) long before it
is *unhealthy* (decision latency blowing the budget).  This module
turns a handful of declarative :class:`SloRule`\\ s into exactly that
three-state view, plus edge-triggered alert events the serve loop
writes into telemetry — so a chaos run can assert "the injected
``server_down`` fired ``alert.fired``" instead of eyeballing a log.

Rule syntax
-----------
A rule is "*healthy while this comparison holds*"::

    SloRule.parse("decision_p95_s < 0.25")
    SloRule.parse("benefit_drop_ratio < 0.2 ! unhealthy")
    SloRule.parse("latency: decision_p95_s < 0.25 for 3")

``metric`` is a key into the snapshot dict the caller passes to
:meth:`HealthMonitor.evaluate` (the serve loop uses
``SchedulerService.health_snapshot``); ``op`` is one of ``< <= > >=``;
``! severity`` names the state entered when the rule is violated
(default ``degraded``); ``for N`` requires N *consecutive* violating
evaluations before the alert fires (hysteresis against one-epoch
blips).  An optional leading ``name:`` labels the rule; otherwise the
spec itself is the name.

State machine
-------------
Overall state is the worst severity among currently-firing rules
(``ok`` < ``degraded`` < ``unhealthy``).  :meth:`HealthMonitor.evaluate`
returns the *edges* — ``alert.fired`` / ``alert.resolved`` event dicts
— exactly once per transition; steady violation produces no event spam.
Rules whose metric is absent from a snapshot are skipped (treated as
passing), so one rule set serves runs with and without benefit scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "SEVERITIES",
    "Alert",
    "HealthMonitor",
    "SloRule",
    "default_rules",
    "severity_rank",
]

#: Health states, mildest first.  Index = numeric rank (the
#: ``repro_serve_health`` gauge value).
SEVERITIES = ("ok", "degraded", "unhealthy")

_OPS: dict[str, Callable[[float, float], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def severity_rank(severity: str) -> int:
    """Numeric rank of a severity (``ok``=0, ``degraded``=1, ...)."""
    return SEVERITIES.index(severity)


@dataclass(frozen=True)
class SloRule:
    """One healthy-while condition over a snapshot metric."""

    metric: str
    op: str
    threshold: float
    severity: str = "degraded"
    name: str = ""
    for_count: int = 1

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(
                f"unknown comparator {self.op!r}; choose from {sorted(_OPS)}"
            )
        if self.severity not in SEVERITIES[1:]:
            raise ValueError(
                f"rule severity must be one of {SEVERITIES[1:]}, "
                f"got {self.severity!r}"
            )
        if self.for_count < 1:
            raise ValueError(f"for_count must be >= 1, got {self.for_count}")
        if not self.name:
            object.__setattr__(self, "name", self.spec())

    def spec(self) -> str:
        """Compact string form; :meth:`parse` round-trips it."""
        out = f"{self.metric} {self.op} {self.threshold:g}"
        if self.for_count != 1:
            out += f" for {self.for_count}"
        if self.severity != "degraded":
            out += f" ! {self.severity}"
        return out

    @classmethod
    def parse(cls, spec: str) -> "SloRule":
        """Parse ``[name:] metric op value [for N] [! severity]``."""
        text = spec.strip()
        name = ""
        if ":" in text.split("<")[0].split(">")[0]:
            name, text = text.split(":", 1)
            name = name.strip()
            text = text.strip()
        severity = "degraded"
        if "!" in text:
            text, severity = text.rsplit("!", 1)
            severity = severity.strip()
            text = text.strip()
        for_count = 1
        parts = text.split()
        if len(parts) >= 2 and parts[-2] == "for":
            for_count = int(parts[-1])
            parts = parts[:-2]
        if len(parts) != 3:
            raise ValueError(
                f"cannot parse SLO rule {spec!r}; expected "
                "'[name:] metric op value [for N] [! severity]'"
            )
        metric, op, value = parts
        return cls(
            metric=metric,
            op=op,
            threshold=float(value),
            severity=severity,
            name=name,
            for_count=for_count,
        )


@dataclass
class Alert:
    """A currently-firing (or just-resolved) rule violation."""

    rule: str
    metric: str
    severity: str
    threshold: float
    value: float
    since_epoch: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "severity": self.severity,
            "threshold": self.threshold,
            "value": self.value,
            "since_epoch": self.since_epoch,
        }


@dataclass
class _RuleState:
    violations: int = 0
    alert: Alert | None = None


class HealthMonitor:
    """Evaluate SLO rules against snapshots; track firing alerts.

    Pure Python state (no locks, no threads), so it pickles inside a
    serve checkpoint and replays deterministically.
    """

    def __init__(self, rules: Iterable[SloRule] = ()) -> None:
        self.rules: list[SloRule] = list(rules)
        self._states: dict[str, _RuleState] = {
            r.name: _RuleState() for r in self.rules
        }
        self._compile()

    def _compile(self) -> None:
        """Pre-resolve per-rule lookups for the per-epoch evaluate loop.

        ``evaluate`` runs every serve epoch inside the <2% metrics
        budget; resolving ``_OPS[rule.op]``, the rule's dataclass
        attributes, and the state dict once here keeps the loop to one
        comparator call per rule.  (``_OPS`` holds lambdas, so the
        compiled list is dropped on pickle and rebuilt on load.)
        """
        self._checks = [
            (
                rule,
                self._states.setdefault(rule.name, _RuleState()),
                rule.metric,
                _OPS[rule.op],
                rule.threshold,
                rule.for_count,
            )
            for rule in self.rules
        ]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_checks", None)  # holds unpicklable comparator lambdas
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compile()

    @property
    def active(self) -> list[Alert]:
        """Currently-firing alerts, worst severity first."""
        alerts = [
            s.alert for s in self._states.values() if s.alert is not None
        ]
        alerts.sort(key=lambda a: (-severity_rank(a.severity), a.rule))
        return alerts

    @property
    def state(self) -> str:
        """Overall health: worst severity among firing alerts.

        Read on every scrape (the ``repro_serve_health`` gauge) and
        every ``summary()``, so it scans the raw rule states instead of
        building :attr:`active`'s sorted list.
        """
        worst = 0
        for rule_state in self._states.values():
            alert = rule_state.alert
            if alert is not None:
                rank = severity_rank(alert.severity)
                if rank > worst:
                    worst = rank
        return SEVERITIES[worst]

    def evaluate(
        self,
        snapshot: Mapping[str, Any],
        *,
        epoch: int | None = None,
    ) -> list[dict[str, Any]]:
        """Check every rule; return edge-triggered alert event dicts.

        Each returned dict has ``event`` = ``alert.fired`` or
        ``alert.resolved`` plus the :meth:`Alert.to_dict` fields —
        ready to pass to ``telemetry.event(**...)`` or append to a log.
        """
        if len(self._checks) != len(self.rules):
            self._compile()  # rules list mutated after construction
        edges: list[dict[str, Any]] = []
        get = snapshot.get
        for rule, state, metric, op, threshold, for_count in self._checks:
            raw = get(metric)
            if raw is None:
                continue  # metric absent this round: rule abstains
            value = float(raw)
            if op(value, threshold):
                if state.violations:
                    state.violations = 0
                if state.alert is not None:
                    resolved = state.alert
                    state.alert = None
                    edges.append(
                        {
                            "event": "alert.resolved",
                            **resolved.to_dict(),
                            "value": value,
                        }
                    )
                continue
            state.violations += 1
            if state.alert is not None:
                state.alert.value = value  # keep the latest reading
            elif state.violations >= for_count:
                state.alert = Alert(
                    rule=rule.name,
                    metric=metric,
                    severity=rule.severity,
                    threshold=threshold,
                    value=value,
                    since_epoch=epoch,
                )
                edges.append({"event": "alert.fired", **state.alert.to_dict()})
        return edges

    def status(self) -> dict[str, Any]:
        """JSON-safe health document (the ``/healthz`` body)."""
        return {
            "status": self.state,
            "alerts": [a.to_dict() for a in self.active],
            "rules": [r.spec() for r in self.rules],
        }


def default_rules(
    *,
    p95_budget_s: float = 0.25,
    max_benefit_drop: float = 0.5,
    min_cache_hit_ratio: float = 0.0,
) -> list[SloRule]:
    """The stock serve-loop rule set.

    * p95 decision latency under budget, else ``unhealthy`` (after 3
      consecutive violations — warm-up full solves are slow by design);
    * windowed benefit drop vs the rolling baseline under
      ``max_benefit_drop``, else ``degraded``;
    * optionally, windowed cache-hit ratio above a floor (off by
      default: a fleet doing constant churn legitimately re-solves).
    """
    rules = [
        SloRule(
            metric="decision_p95_s",
            op="<",
            threshold=p95_budget_s,
            severity="unhealthy",
            name="decision_latency",
            for_count=3,
        ),
        SloRule(
            metric="benefit_drop_ratio",
            op="<",
            threshold=max_benefit_drop,
            severity="degraded",
            name="benefit_drop",
        ),
    ]
    if min_cache_hit_ratio > 0:
        rules.append(
            SloRule(
                metric="cache_hit_ratio",
                op=">=",
                threshold=min_cache_hit_ratio,
                severity="degraded",
                name="cache_hit_ratio",
            )
        )
    return rules
