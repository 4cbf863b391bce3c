"""Declarative alert rules over catalog metric names.

A rule file is JSON::

    {
      "rules": [
        {"name": "no-lost-messages", "kind": "threshold",
         "metric": "cluster.lost_messages", "op": ">", "value": 0,
         "severity": "critical",
         "message": "messages were dropped during the sweep"},
        {"name": "recovery-bounded", "kind": "ratio",
         "metric": "cluster.phase_seconds",
         "denominator": "distgnn.epoch_seconds",
         "op": ">", "value": 10.0, "severity": "warning"},
        {"name": "traffic-recorded", "kind": "absence",
         "metric": "cluster.bytes_sent", "severity": "warning"}
      ]
    }

Three predicate kinds:

``threshold``
    Fires when ``totals[metric] <op> value``. A metric absent from the
    totals is *not* evaluated (use ``absence`` to demand presence).
``ratio``
    Fires when ``totals[metric] / totals[denominator] <op> value``;
    skipped when the denominator is missing or zero.
``absence``
    Fires when the metric is missing or exactly zero — "this sweep
    should have produced X".

Metric names are validated against :mod:`repro.obs.catalog` at load
time, so a typo fails fast instead of silently never firing.
Severities are the analysis stack's (:data:`SEVERITIES`); firings are
ordinary :class:`Finding` objects (``kind="alert:<predicate>"``), so
they sort, serialize and render through the same machinery as anomaly
findings.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..catalog import find_spec
from ..analysis.findings import SEVERITIES, Finding, cell_label

__all__ = [
    "AlertRule",
    "RuleSet",
    "SweepAborted",
    "record_totals",
    "severity_at_least",
]

RULE_KINDS = ("threshold", "ratio", "absence")

_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


class SweepAborted(RuntimeError):
    """Raised by the sweep's cell callback to stop the sweep early.

    Carries the findings that crossed the ``--abort-on`` bar; the
    driver turns it into a nonzero exit naming the fired rule.
    """

    def __init__(self, findings: Sequence[Finding]) -> None:
        names = ", ".join(
            sorted({
                str(f.context.get("rule", f.subject)) for f in findings
            })
        )
        super().__init__(
            f"sweep aborted: alert rule(s) fired at or above the "
            f"abort severity: {names}"
        )
        self.findings = list(findings)


def severity_at_least(severity: str, floor: str) -> bool:
    """True when ``severity`` is at or above ``floor``."""
    return _SEVERITY_RANK[severity] >= _SEVERITY_RANK[floor]


@dataclass(frozen=True)
class AlertRule:
    """One declarative predicate over a metric-totals mapping."""

    name: str
    kind: str
    metric: str
    severity: str = "warning"
    op: str = ">"
    value: float = 0.0
    denominator: Optional[str] = None
    message: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("alert rule needs a non-empty name")
        if self.kind not in RULE_KINDS:
            raise ValueError(
                f"rule {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {RULE_KINDS}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"rule {self.name!r}: unknown severity "
                f"{self.severity!r}; expected one of {SEVERITIES}"
            )
        if self.op not in _OPS:
            raise ValueError(
                f"rule {self.name!r}: unknown op {self.op!r}; "
                f"expected one of {tuple(_OPS)}"
            )
        find_spec(self.metric)  # raises KeyError on a non-catalog name
        if self.kind == "ratio":
            if not self.denominator:
                raise ValueError(
                    f"rule {self.name!r}: ratio rules need a "
                    "denominator metric"
                )
            find_spec(self.denominator)
        elif self.denominator:
            raise ValueError(
                f"rule {self.name!r}: only ratio rules take a "
                "denominator"
            )

    def evaluate(
        self, totals: Mapping[str, float], subject: str
    ) -> Optional[Finding]:
        """Evaluate against one totals mapping; a firing or ``None``."""
        if self.kind == "absence":
            present = float(totals.get(self.metric, 0.0))
            if present != 0.0:
                return None
            observed = 0.0
            detail = f"{self.metric} is absent or zero"
        else:
            if self.metric not in totals:
                return None
            observed = float(totals[self.metric])
            if self.kind == "ratio":
                denom = float(totals.get(self.denominator, 0.0))
                if denom == 0.0:
                    return None
                observed = observed / denom
            if not _OPS[self.op](observed, self.value):
                return None
            detail = (
                f"{self.metric}"
                + (f" / {self.denominator}" if self.kind == "ratio"
                   else "")
                + f" = {observed:.6g} {self.op} {self.value:.6g}"
            )
        message = self.message or detail
        return Finding(
            kind=f"alert:{self.kind}",
            severity=self.severity,
            subject=subject,
            message=f"rule {self.name!r}: {message} ({detail})",
            value=observed,
            threshold=self.value,
            context={
                "rule": self.name,
                "metric": self.metric,
                "op": self.op,
            },
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able form (round-trips through ``from_dict``)."""
        data: Dict[str, object] = {
            "name": self.name, "kind": self.kind,
            "metric": self.metric, "severity": self.severity,
            "op": self.op, "value": self.value,
        }
        if self.denominator:
            data["denominator"] = self.denominator
        if self.message:
            data["message"] = self.message
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AlertRule":
        """Build and validate a rule from its JSON form."""
        known = {
            "name", "kind", "metric", "severity", "op", "value",
            "denominator", "message",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"alert rule has unknown keys: {sorted(unknown)}"
            )
        return cls(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "threshold")),
            metric=str(data.get("metric", "")),
            severity=str(data.get("severity", "warning")),
            op=str(data.get("op", ">")),
            value=float(data.get("value", 0.0)),
            denominator=(
                str(data["denominator"])
                if data.get("denominator") else None
            ),
            message=str(data.get("message", "")),
        )


@dataclass(frozen=True)
class RuleSet:
    """An ordered, validated collection of alert rules."""

    rules: Tuple[AlertRule, ...] = ()

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RuleSet":
        """Parse ``{"rules": [...]}``; every rule is validated."""
        raw = data.get("rules")
        if not isinstance(raw, list):
            raise ValueError(
                'rules file must be an object with a "rules" list'
            )
        rules = tuple(AlertRule.from_dict(entry) for entry in raw)
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("alert rule names must be unique")
        return cls(rules)

    @classmethod
    def load(cls, path: str) -> "RuleSet":
        """Load and validate a JSON rules file."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def evaluate(
        self, totals: Mapping[str, float], subject: str
    ) -> List[Finding]:
        """All firings over one totals mapping, in rule order."""
        findings = []
        for rule in self.rules:
            finding = rule.evaluate(totals, subject)
            if finding is not None:
                findings.append(finding)
        return findings

    def evaluate_records(self, records: Sequence) -> List[Finding]:
        """Evaluate every rule against every record's totals."""
        findings: List[Finding] = []
        for record in records:
            findings.extend(
                self.evaluate(record_totals(record), cell_label(record))
            )
        return findings


def record_totals(record) -> Dict[str, float]:
    """Map one sweep record onto catalog metric names for rules.

    Telemetry totals (``obs_metrics``) win over the record's own
    fields; the memory peak exists only with telemetry on, so rules
    over it don't evaluate (or fire, for ``absence`` rules) without.
    """
    metrics = record.obs_metrics or {}
    totals: Dict[str, float] = {
        "cluster.lost_messages": float(
            metrics.get("lost_messages_total", record.lost_messages)
        ),
        "cluster.bytes_sent": float(
            metrics.get("bytes_sent_total", record.network_bytes)
        ),
        "cluster.phase_seconds": float(record.makespan_seconds),
    }
    if "memory_peak_bytes_max" in metrics:
        totals["cluster.memory_peak_bytes"] = float(
            metrics["memory_peak_bytes_max"]
        )
    if record.engine == "distdgl":
        totals["distdgl.network_bytes"] = float(record.network_bytes)
        totals["distdgl.degraded_steps"] = float(record.degraded_steps)
    else:
        totals["distgnn.network_bytes"] = float(record.network_bytes)
        # Only the full-batch engine has a catalogued epoch timer.
        totals["distgnn.epoch_seconds"] = float(record.epoch_seconds)
        totals["distgnn.replayed_epochs"] = float(record.reexecuted_epochs)
    return totals
