"""End-to-end report building: RunData in, AnalysisReport out.

This is the orchestration the CLI (``repro obs analyze``), the sweep
runner (``--analysis-out``) and the run report all share: fold whatever
artifacts a run left behind — sweep records, metric snapshots, JSONL
traces — through the attribution and anomaly layers into one
:class:`~.findings.AnalysisReport`.

Only simulated quantities enter the report (phase totals, busy seconds,
traffic, counts) — never wall-clock measurements — so the report for a
given config is byte-identical across serial and parallel sweeps and
across repeated invocations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .anomaly import (
    AnomalyThresholds,
    detect_record_anomalies,
    detect_series_anomalies,
    detect_snapshot_anomalies,
)
from .attribution import (
    attribute_phase_totals,
    record_phase_totals,
    snapshot_phase_totals,
)
from .findings import AnalysisReport
from .load import RunData
from .tradeoff import traffic_accuracy_tradeoff

__all__ = [
    "build_analysis_report",
    "per_partitioner_breakdown",
    "resource_depth",
]


def _record_phase_breakdown(record) -> Dict[str, float]:
    """Per-phase seconds of one record's mean epoch.

    Prefers the engine's own phase table (DistDGL records carry one);
    full-batch records decompose into forward/backward/sync. These are
    per-epoch means, which is what the paper's stacked-bar figures
    (19/21/22/25) plot.
    """
    phases = getattr(record, "phase_seconds", None)
    if isinstance(phases, dict) and phases:
        return {str(k): float(v) for k, v in phases.items()}
    return {
        "forward": float(getattr(record, "forward_seconds", 0.0)),
        "backward": float(getattr(record, "backward_seconds", 0.0)),
        "sync": float(getattr(record, "sync_seconds", 0.0)),
    }


def per_partitioner_breakdown(
    records: Sequence,
) -> Dict[str, Dict[str, object]]:
    """Per-engine, per-partitioner mean epoch-time phase breakdown.

    ``{engine: {partitioner: {cells, mean_epoch_seconds,
    phase_seconds, phase_fractions}}}`` — the data behind the paper's
    phase-stacked bars and this package's dashboard.
    """
    accumulator: Dict[str, Dict[str, Dict[str, object]]] = {}
    for record in records:
        entry = accumulator.setdefault(record.engine, {}).setdefault(
            record.partitioner,
            {"cells": 0, "epoch_seconds": 0.0, "phases": {}},
        )
        entry["cells"] += 1
        entry["epoch_seconds"] += float(record.epoch_seconds)
        for phase, seconds in _record_phase_breakdown(record).items():
            entry["phases"][phase] = (
                entry["phases"].get(phase, 0.0) + seconds
            )

    result: Dict[str, Dict[str, object]] = {}
    for engine in sorted(accumulator):
        result[engine] = {}
        for partitioner in sorted(accumulator[engine]):
            entry = accumulator[engine][partitioner]
            cells = entry["cells"]
            phases = {
                name: seconds / cells
                for name, seconds in sorted(entry["phases"].items())
            }
            total = sum(phases.values())
            result[engine][partitioner] = {
                "cells": cells,
                "mean_epoch_seconds": entry["epoch_seconds"] / cells,
                "phase_seconds": phases,
                "phase_fractions": {
                    name: seconds / total if total else 0.0
                    for name, seconds in phases.items()
                },
            }
    return result


def resource_depth(records: Sequence) -> Dict[str, Dict[str, object]]:
    """Per-engine traffic-matrix and memory depth at the largest k.

    For each engine, aggregates the records at that engine's largest
    machine count whose ``obs_metrics`` carry the resource-depth fields
    (PR 5): the ``src x dst`` traffic matrix summed over partitioners
    and parameter configs, the per-category memory peaks and the
    per-phase memory watermark (both elementwise max over records, so
    they stay *peaks*). Everything is a simulated quantity, so the
    result is identical for serial and parallel sweeps.
    """
    by_engine: Dict[str, List] = {}
    for record in records:
        metrics = getattr(record, "obs_metrics", None) or {}
        if "traffic_matrix" in metrics:
            by_engine.setdefault(record.engine, []).append(record)

    result: Dict[str, Dict[str, object]] = {}
    for engine in sorted(by_engine):
        group = by_engine[engine]
        top_k = max(r.num_machines for r in group)
        group = [r for r in group if r.num_machines == top_k]
        matrix = [[0.0] * top_k for _ in range(top_k)]
        peaks: Dict[str, List[float]] = {}
        timeline: Dict[str, List[float]] = {}
        for record in group:
            metrics = record.obs_metrics
            for i, row in enumerate(metrics["traffic_matrix"]):
                for j, value in enumerate(row):
                    matrix[i][j] += float(value)
            for table, source in (
                (peaks, metrics.get("memory_category_peaks", {})),
                (timeline, metrics.get("memory_timeline", {})),
            ):
                for key, values in source.items():
                    if key not in table:
                        table[key] = [float(v) for v in values]
                    else:
                        table[key] = [
                            max(old, float(new))
                            for old, new in zip(table[key], values)
                        ]
        result[engine] = {
            "k": top_k,
            "cells": len(group),
            "traffic_matrix": matrix,
            "memory_category_peaks": {
                category: peaks[category]
                for category in sorted(peaks)
            },
            "memory_timeline": timeline,
        }
    return result


def _machine_table(
    snapshot: Sequence[Dict[str, object]]
) -> List[Dict[str, object]]:
    """Per-machine simulated totals from a metrics snapshot.

    Rows are machines; columns the per-machine ``cluster.*`` series
    (busy seconds, traffic, lost messages, memory peak). This is the
    dashboard's heatmap source and is all-simulated, so deterministic.
    """
    per_machine: Dict[int, Dict[str, float]] = {}
    columns = {
        "cluster.machine_busy_seconds": "busy_seconds",
        "cluster.bytes_sent": "bytes_sent",
        "cluster.bytes_received": "bytes_received",
        "cluster.lost_messages": "lost_messages",
        "cluster.memory_peak_bytes": "memory_peak_bytes",
    }
    for entry in snapshot:
        column = columns.get(str(entry.get("name")))
        if column is None:
            continue
        machine = int(entry.get("labels", {}).get("machine", 0))
        row = per_machine.setdefault(machine, {})
        row[column] = row.get(column, 0.0) + float(
            entry.get("value", 0.0)
        )
    return [
        {"machine": machine, **per_machine[machine]}
        for machine in sorted(per_machine)
    ]


def _trace_phase_findings(
    run: RunData, thresholds: AnomalyThresholds
) -> List:
    """Anomaly findings over the trace's phase-duration event series."""
    series: Dict[str, List[float]] = {}
    for event in run.events:
        if event.get("kind") != "phase":
            continue
        series.setdefault(str(event.get("name", "")), []).append(
            float(event.get("seconds", 0.0))
        )
    findings = []
    for name in sorted(series):
        findings.extend(
            detect_series_anomalies(
                f"trace-phase:{name}",
                series[name],
                thresholds,
                kind="phase-duration-spike",
                unit="s",
            )
        )
    return findings


def build_analysis_report(
    run: RunData,
    thresholds: Optional[AnomalyThresholds] = None,
) -> AnalysisReport:
    """Diagnose one loaded run into an :class:`AnalysisReport`."""
    thresholds = thresholds or AnomalyThresholds()

    # Record totals win (they cover every cell); the snapshot's
    # ``cluster.phase_seconds`` series is the fallback.
    phase_totals = record_phase_totals(
        run.records
    ) or snapshot_phase_totals(run.metrics)
    phase_mix = attribute_phase_totals(phase_totals)
    breakdown = per_partitioner_breakdown(run.records)
    machines = _machine_table(run.metrics)

    findings = []
    findings.extend(detect_record_anomalies(run.records, thresholds))
    findings.extend(detect_snapshot_anomalies(run.metrics, thresholds))
    findings.extend(_trace_phase_findings(run, thresholds))
    if run.skipped_lines:
        from .findings import Finding

        findings.append(
            Finding(
                kind="trace-truncated",
                severity="info",
                subject=run.label,
                message=(
                    f"{run.skipped_lines} truncated/corrupt JSONL "
                    "line(s) were skipped while loading traces"
                ),
                value=float(run.skipped_lines),
            )
        )

    dominant = phase_mix["phases"][0]["name"] if phase_mix["phases"] else None
    engines = sorted({record.engine for record in run.records})
    summary: Dict[str, object] = {
        "engines": engines,
        "total_phase_seconds": phase_mix["total_seconds"],
        "recovery_fraction": phase_mix["recovery_fraction"],
        "dominant_phase": dominant,
        "thresholds": thresholds.to_dict(),
    }

    return AnalysisReport(
        source=run.source_dict(),
        summary=summary,
        attribution={
            "phase_mix": phase_mix,
            "per_partitioner": breakdown,
            "machines": machines,
            "resources": resource_depth(run.records),
            "comm_tradeoff": traffic_accuracy_tradeoff(run.records),
        },
        findings=findings,
    )
