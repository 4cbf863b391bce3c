"""Consolidated run reports for saved sweeps (markdown + JSON).

:func:`build_run_report` folds a list of experiment records — from one
engine or both, with or without fault and obs fields — into a single
summary: sweep coverage, headline speedups over the Random baseline,
fault/recovery accounting, and aggregated telemetry from the records'
``obs_metrics`` summaries. ``scripts/build_run_report.py`` wraps it for
the command line.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import speedup_summary

__all__ = ["build_run_report"]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _engine_summary(records: List) -> Dict[str, object]:
    summary: Dict[str, object] = {
        "num_records": len(records),
        "mean_epoch_seconds": _mean([r.epoch_seconds for r in records]),
        "mean_network_bytes": _mean([r.network_bytes for r in records]),
        "mean_partitioning_seconds": _mean(
            [r.partitioning_seconds for r in records]
        ),
    }
    oom = sum(1 for r in records if getattr(r, "out_of_memory", False))
    if oom:
        summary["out_of_memory_runs"] = oom
    return summary


def _fault_summary(records: List) -> Optional[Dict[str, object]]:
    faulty = [r for r in records if r.fault_config is not None]
    if not faulty:
        return None
    return {
        "num_fault_records": len(faulty),
        "crashes": sum(r.crashes for r in faulty),
        "slowdowns": sum(r.slowdowns for r in faulty),
        "lost_messages": sum(r.lost_messages for r in faulty),
        "recovery_seconds_total": sum(
            r.recovery_seconds for r in faulty
        ),
        "mean_recovery_fraction": _mean(
            [
                r.recovery_seconds / r.makespan_seconds
                for r in faulty
                if r.makespan_seconds > 0
            ]
        ),
    }


def _comm_summary(records: List) -> Optional[Dict[str, object]]:
    """Communication-reduction section: per-comm-config tradeoff.

    Present only when at least one record carries a ``comm_config``
    (see ``docs/communication.md``); the table mirrors the dashboard's
    tradeoff panel, keyed by the config label.
    """
    from ..obs.analysis import traffic_accuracy_tradeoff

    tradeoff = traffic_accuracy_tradeoff(records)
    if not tradeoff:
        return None
    configs: Dict[str, Dict[str, float]] = {}
    for engine, by_partitioner in tradeoff.items():
        for points in by_partitioner.values():
            for point in points:
                entry = configs.setdefault(
                    point["comm"],
                    {
                        "cells": 0,
                        "wire_bytes": 0.0,
                        "saved_bytes": 0.0,
                        "codec_seconds": 0.0,
                        "accuracy_proxy_error": 0.0,
                        "frontier_cells": 0,
                    },
                )
                entry["cells"] += point["cells"]
                entry["wire_bytes"] += (
                    point["wire_bytes"] * point["cells"]
                )
                entry["saved_bytes"] += (
                    point["saved_bytes"] * point["cells"]
                )
                entry["codec_seconds"] += (
                    point["codec_seconds"] * point["cells"]
                )
                entry["accuracy_proxy_error"] = max(
                    entry["accuracy_proxy_error"],
                    point["accuracy_proxy_error"],
                )
                if point["on_frontier"]:
                    entry["frontier_cells"] += point["cells"]
    for entry in configs.values():
        raw = entry["wire_bytes"] + entry["saved_bytes"]
        entry["saved_fraction"] = (
            entry["saved_bytes"] / raw if raw else 0.0
        )
    return {
        "tradeoff": tradeoff,
        "configs": dict(sorted(configs.items())),
    }


def _obs_summary(records: List) -> Optional[Dict[str, object]]:
    observed = [r for r in records if r.obs_metrics]
    if not observed:
        return None
    phase_seconds: Dict[str, float] = {}
    marks: Dict[str, int] = {}
    bytes_sent = bytes_received = 0.0
    lost = 0
    memory_peaks: Dict[str, float] = {}
    traffic_phase: Dict[str, float] = {}
    cross_traffic = 0.0
    for record in observed:
        metrics = record.obs_metrics
        for phase, seconds in metrics.get("phase_seconds", {}).items():
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
        for kind, count in metrics.get("marks", {}).items():
            marks[kind] = marks.get(kind, 0) + count
        bytes_sent += metrics.get("bytes_sent_total", 0.0)
        bytes_received += metrics.get("bytes_received_total", 0.0)
        lost += metrics.get("lost_messages_total", 0)
        for category, peaks in metrics.get(
            "memory_category_peaks", {}
        ).items():
            memory_peaks[category] = max(
                memory_peaks.get(category, 0.0), max(peaks)
            )
        for phase, total in metrics.get(
            "traffic_phase_bytes", {}
        ).items():
            traffic_phase[phase] = (
                traffic_phase.get(phase, 0.0) + float(total)
            )
        matrix = metrics.get("traffic_matrix")
        if matrix:
            cross_traffic += sum(sum(row) for row in matrix)
    summary = {
        "num_observed_records": len(observed),
        "phase_seconds": dict(sorted(phase_seconds.items())),
        "marks": dict(sorted(marks.items())),
        "bytes_sent_total": bytes_sent,
        "bytes_received_total": bytes_received,
        "lost_messages_total": lost,
    }
    if memory_peaks:
        summary["memory_category_peaks"] = dict(
            sorted(memory_peaks.items())
        )
    if traffic_phase:
        summary["traffic_phase_bytes"] = dict(
            sorted(traffic_phase.items())
        )
        summary["traffic_matrix_bytes_total"] = cross_traffic
    return summary


def _analysis_summary(records: List) -> Dict[str, object]:
    """Diagnosis section: per-partitioner phase mix plus findings.

    Delegates to :mod:`repro.obs.analysis` (imported lazily —
    ``experiments.__init__`` loads this module, and the analysis package
    imports experiment loaders, so a top-level import would cycle).
    """
    from ..obs.analysis import (
        build_analysis_report,
        per_partitioner_breakdown,
    )
    from ..obs.analysis.load import RunData

    report = build_analysis_report(RunData(label="report", records=records))
    return {
        "per_partitioner": per_partitioner_breakdown(records),
        "findings": [f.to_dict() for f in report.findings],
        "by_severity": report.severity_counts(),
        "dominant_phase": report.summary.get("dominant_phase"),
    }


def _speedup_rows(records: List) -> List[Tuple[str, str, int, float]]:
    rows = []
    for (graph, partitioner, k), summary in sorted(
        speedup_summary(records).items()
    ):
        if partitioner == "random":
            continue
        rows.append((graph, partitioner, k, summary.mean))
    return rows


def _render_markdown(report: Dict[str, object]) -> str:
    lines: List[str] = ["# Run report", ""]
    lines.append(
        f"{report['num_records']} records | graphs: "
        f"{', '.join(report['graphs'])} | machines: "
        f"{', '.join(str(k) for k in report['machine_counts'])}"
    )
    lines.append("")

    lines.append("## Engines")
    lines.append("")
    lines.append(
        "| Engine | Records | Mean epoch s | Mean net MB "
        "| Mean partition s |"
    )
    lines.append("|---|---|---|---|---|")
    for engine, summary in sorted(report["engines"].items()):
        lines.append(
            f"| {engine} | {summary['num_records']} "
            f"| {summary['mean_epoch_seconds']:.4f} "
            f"| {summary['mean_network_bytes'] / 1e6:.2f} "
            f"| {summary['mean_partitioning_seconds']:.3f} |"
        )
    lines.append("")

    speedups = report["speedups"]
    if speedups:
        lines.append("## Speedup over Random (mean per cell)")
        lines.append("")
        lines.append("| Graph | Partitioner | Machines | Speedup |")
        lines.append("|---|---|---|---|")
        for graph, partitioner, k, mean in speedups:
            lines.append(
                f"| {graph} | {partitioner} | {k} | {mean:.2f}x |"
            )
        lines.append("")

    faults = report["faults"]
    if faults:
        lines.append("## Faults and recovery")
        lines.append("")
        lines.append(
            f"- fault records: {faults['num_fault_records']}"
        )
        lines.append(
            f"- crashes / slowdowns / lost messages: "
            f"{faults['crashes']} / {faults['slowdowns']} / "
            f"{faults['lost_messages']}"
        )
        lines.append(
            f"- recovery seconds (total): "
            f"{faults['recovery_seconds_total']:.4f}"
        )
        lines.append(
            f"- mean recovery fraction of makespan: "
            f"{faults['mean_recovery_fraction'] * 100:.2f}%"
        )
        lines.append("")

    comm = report["comm"]
    if comm:
        lines.append(
            "## Communication reduction (see docs/communication.md)"
        )
        lines.append("")
        lines.append(
            "| Comm config | Cells | Wire MB/epoch | Saved "
            "| Codec s/epoch | Accuracy error |"
        )
        lines.append("|---|---|---|---|---|---|")
        for label, entry in comm["configs"].items():
            cells = entry["cells"]
            lines.append(
                f"| {label} | {cells} "
                f"| {entry['wire_bytes'] / cells / 1e6:.2f} "
                f"| {entry['saved_fraction'] * 100:.1f}% "
                f"| {entry['codec_seconds'] / cells:.5f} "
                f"| {entry['accuracy_proxy_error']:.4f} |"
            )
        lines.append("")

    telemetry = report["obs"]
    if telemetry:
        lines.append("## Telemetry (from record obs_metrics)")
        lines.append("")
        lines.append(
            f"- observed records: {telemetry['num_observed_records']}"
        )
        lines.append(
            f"- traffic: {telemetry['bytes_sent_total'] / 1e6:.2f} MB "
            f"sent, {telemetry['bytes_received_total'] / 1e6:.2f} MB "
            "received"
        )
        if telemetry["marks"]:
            marks = ", ".join(
                f"{kind}={count}"
                for kind, count in telemetry["marks"].items()
            )
            lines.append(f"- timeline marks: {marks}")
        if telemetry.get("memory_category_peaks"):
            peaks = ", ".join(
                f"{category}={peak / 1e6:.1f} MB"
                for category, peak
                in telemetry["memory_category_peaks"].items()
            )
            lines.append(f"- memory peaks by category (worst machine): "
                         f"{peaks}")
        if telemetry.get("traffic_phase_bytes"):
            top = sorted(
                telemetry["traffic_phase_bytes"].items(),
                key=lambda kv: (-kv[1], kv[0]),
            )[:5]
            phases = ", ".join(
                f"{phase}={total / 1e6:.2f} MB" for phase, total in top
            )
            lines.append(
                f"- pairwise traffic "
                f"({telemetry['traffic_matrix_bytes_total'] / 1e6:.2f} "
                f"MB attributed src->dst), top phases: {phases}"
            )
        lines.append("")
        lines.append("| Phase | Total simulated s |")
        lines.append("|---|---|")
        for phase, seconds in telemetry["phase_seconds"].items():
            lines.append(f"| {phase} | {seconds:.4f} |")
        lines.append("")
    else:
        lines.append(
            "_No telemetry in these records — rerun with "
            "`--obs-level metrics` to populate `obs_metrics`._"
        )
        lines.append("")

    analysis = report["analysis"]
    lines.append("## Analysis (see docs/analysis.md)")
    lines.append("")
    if analysis["dominant_phase"]:
        lines.append(f"- dominant phase: `{analysis['dominant_phase']}`")
    findings = analysis["findings"]
    if findings:
        by_severity = analysis["by_severity"]
        lines.append(
            f"- findings: {len(findings)} "
            f"({by_severity.get('critical', 0)} critical, "
            f"{by_severity.get('warning', 0)} warning, "
            f"{by_severity.get('info', 0)} info)"
        )
        lines.append("")
        lines.append("| Severity | Kind | Message |")
        lines.append("|---|---|---|")
        for finding in findings:
            lines.append(
                f"| {finding['severity']} | {finding['kind']} "
                f"| {finding['message']} |"
            )
    else:
        lines.append("- findings: none — nothing anomalous detected")
    lines.append("")

    return "\n".join(lines)


def build_run_report(records: Sequence) -> Tuple[str, Dict[str, object]]:
    """Fold ``records`` into ``(markdown, report_dict)``.

    Accepts any mix of :class:`~.records.DistGnnRecord` and
    :class:`~.records.DistDglRecord`; the fault and telemetry sections
    appear only when the corresponding fields are populated.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot build a run report from zero records")
    engines: Dict[str, List] = {}
    for record in records:
        engines.setdefault(record.engine, []).append(record)
    report: Dict[str, object] = {
        "num_records": len(records),
        "graphs": sorted({r.graph for r in records}),
        "partitioners": sorted({r.partitioner for r in records}),
        "machine_counts": sorted({r.num_machines for r in records}),
        "engines": {
            engine: _engine_summary(engine_records)
            for engine, engine_records in engines.items()
        },
        "speedups": [
            row
            for engine_records in engines.values()
            for row in _speedup_rows(engine_records)
        ],
        "faults": _fault_summary(records),
        "comm": _comm_summary(records),
        "obs": _obs_summary(records),
        "analysis": _analysis_summary(records),
    }
    return _render_markdown(report), report
