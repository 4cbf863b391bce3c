"""Typed findings and the analysis report container.

A :class:`Finding` is one diagnosed fact — a straggler outlier, a
recovery-overhead spike, a metric regression — with a severity, the
subject it is about, the measured value and the threshold it crossed.
Detectors return lists of findings; :class:`AnalysisReport` bundles them
with the attribution tables and serializes canonically (sorted keys,
stable ordering), so the same telemetry always produces byte-identical
JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = [
    "SEVERITIES",
    "Finding",
    "AnalysisReport",
    "sort_findings",
    "cell_label",
    "cell_key",
]

#: Recognised severities, in increasing order of urgency.
SEVERITIES = ("info", "warning", "critical")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Finding:
    """One diagnosed fact about a run.

    ``kind`` is a stable machine-readable tag (``straggler-outlier``,
    ``recovery-spike``, ``cache-collapse``, ``phase-duration-spike``,
    ``epoch-time-outlier``, ``machine-imbalance``, ``metric-regression``,
    ``metric-added``, ``metric-removed``, ``phase-mix-shift``);
    ``subject`` names what it is about (a sweep cell, a machine, a
    metric series); ``value``/``threshold`` record the measurement that
    triggered it; ``context`` carries detector-specific detail.
    """

    kind: str
    severity: str
    subject: str
    message: str
    value: float = 0.0
    threshold: float = 0.0
    context: Dict[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {SEVERITIES}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict (context keys sorted for determinism)."""
        return {
            "kind": self.kind,
            "severity": self.severity,
            "subject": self.subject,
            "message": self.message,
            "value": self.value,
            "threshold": self.threshold,
            "context": dict(sorted(self.context.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        return cls(
            kind=str(data["kind"]),
            severity=str(data["severity"]),
            subject=str(data["subject"]),
            message=str(data["message"]),
            value=float(data.get("value", 0.0)),
            threshold=float(data.get("threshold", 0.0)),
            context=dict(data.get("context", {})),
        )


def cell_label(record) -> str:
    """``graph/partitioner/k=N`` of a sweep record (duck-typed): the
    subject of per-record alert findings."""
    return f"{record.graph}/{record.partitioner}/k={record.num_machines}"


def cell_key(record) -> str:
    """Stable identity of one sweep cell across runs: the subject of
    per-cell anomaly findings and the key cells are diffed under."""
    return (
        f"{record.engine}/{cell_label(record)}/{record.params.label()}"
    )


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic presentation order: most severe first, then by
    kind, subject and message (ties broken textually, never by input
    order, so serial and parallel analyses sort identically)."""
    return sorted(
        findings,
        key=lambda f: (
            -_SEVERITY_RANK[f.severity],
            f.kind,
            f.subject,
            f.message,
        ),
    )


@dataclass
class AnalysisReport:
    """Findings plus attribution for one analyzed run.

    ``source`` describes what was analyzed (record/event/metric counts,
    input basenames — never absolute paths, so reports from different
    working directories stay comparable); ``attribution`` holds the
    critical-path tables (see :mod:`.attribution`); ``summary`` the
    headline numbers the renderers lead with.
    """

    source: Dict[str, object] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)
    attribution: Dict[str, object] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)

    #: Serialization format version.
    SCHEMA = 2

    def severity_counts(self) -> Dict[str, int]:
        """``{severity: count}`` over every declared severity."""
        counts = {name: 0 for name in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] += 1
        return counts

    def worst_severity(self) -> Optional[str]:
        """The most urgent severity present, or None with no findings."""
        worst = None
        for finding in self.findings:
            if worst is None or (
                _SEVERITY_RANK[finding.severity] > _SEVERITY_RANK[worst]
            ):
                worst = finding.severity
        return worst

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict with findings in canonical order."""
        return {
            "schema": self.SCHEMA,
            "source": self.source,
            "summary": {
                **self.summary,
                "num_findings": len(self.findings),
                "by_severity": self.severity_counts(),
            },
            "attribution": self.attribution,
            "findings": [
                finding.to_dict()
                for finding in sort_findings(self.findings)
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, 2-space indent, trailing
        newline — byte-identical for identical telemetry."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AnalysisReport":
        """Rebuild a report from :meth:`to_dict` output."""
        summary = dict(data.get("summary", {}))
        summary.pop("num_findings", None)
        summary.pop("by_severity", None)
        return cls(
            source=dict(data.get("source", {})),
            summary=summary,
            attribution=dict(data.get("attribution", {})),
            findings=[
                Finding.from_dict(entry)
                for entry in data.get("findings", [])
            ],
        )

    def save(self, path: str) -> None:
        """Write :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
