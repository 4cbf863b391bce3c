"""Telemetry analysis & diagnosis: turn recorded telemetry into answers.

The obs layer (PR 3) *collects* — metric snapshots, JSONL traces,
timeline phase records. This package *diagnoses*: it consumes those
artifacts and produces structured findings the paper's analyses are
made of — which phase dominates epoch time per partitioner, who the
stragglers are, how much wall-time skew vs. compute vs. recovery costs,
and how two runs differ.

Five stages, composable or driven end-to-end by the CLI
(``repro obs analyze | diff``):

* :mod:`.attribution` — critical-path & straggler attribution from
  :class:`~repro.cluster.timeline.Timeline` phase vectors and from
  sweep-record phase totals;
* :mod:`.anomaly` — deterministic rolling median/MAD outlier detection
  over phase-duration series, metric streams and sweep records;
* :mod:`.diff` — cross-run regression diffing of metric snapshots,
  traces and record sets;
* :mod:`.report` — the one records -> summary fold (coverage, speed-up
  over Random, faults, comm, telemetry, attribution, findings);
* :mod:`.render` / :mod:`.dashboard` — that report as terminal text,
  markdown and a self-contained single-file HTML dashboard (inline
  CSS/JS, embedded JSON, no network).

Everything here is deterministic: inputs are simulated quantities, the
detectors use seed-free robust statistics, and reports serialize with
sorted keys — analyzing the records of a serial sweep and of a parallel
sweep of the same config yields byte-identical JSON.

This subpackage is imported explicitly (``from repro.obs import
analysis``); ``repro.obs`` itself does not import it, so the obs fast
path stays import-light and the dependency runs one way: this package
imports ``repro.experiments`` (record loading, speed-up and robustness
summaries), never the reverse.
"""

from .anomaly import (
    AnomalyThresholds,
    detect_record_anomalies,
    detect_snapshot_anomalies,
    detect_timeline_anomalies,
    rolling_mad_zscores,
)
from .attribution import (
    MachineAttribution,
    PhaseAttribution,
    TimelineAttribution,
    attribute_phase_totals,
    attribute_timeline,
)
from .dashboard import render_dashboard
from .diff import RunDiff, diff_records, diff_runs, diff_snapshots
from .findings import SEVERITIES, AnalysisReport, Finding, sort_findings
from .load import RunData, load_run_inputs
from .report import build_analysis_report, per_partitioner_breakdown
from .render import (
    render_diff_text,
    render_headline_text,
    render_report_markdown,
    render_report_text,
    report_sections,
)
from .tradeoff import traffic_accuracy_tradeoff

__all__ = [
    # findings
    "SEVERITIES",
    "Finding",
    "AnalysisReport",
    "sort_findings",
    # attribution
    "PhaseAttribution",
    "MachineAttribution",
    "TimelineAttribution",
    "attribute_timeline",
    "attribute_phase_totals",
    # anomaly
    "AnomalyThresholds",
    "rolling_mad_zscores",
    "detect_timeline_anomalies",
    "detect_record_anomalies",
    "detect_snapshot_anomalies",
    # diff
    "RunDiff",
    "diff_snapshots",
    "diff_records",
    "diff_runs",
    # io + orchestration
    "RunData",
    "load_run_inputs",
    "build_analysis_report",
    "per_partitioner_breakdown",
    "traffic_accuracy_tradeoff",
    # renderers
    "report_sections",
    "render_report_text",
    "render_report_markdown",
    "render_headline_text",
    "render_diff_text",
    "render_dashboard",
]
