"""End-to-end report building: RunData in, AnalysisReport out.

This is the only records -> summary path: the CLI (``repro obs
analyze``), the sweep runner (its printed tail, ``--analysis-out``,
``--analysis-dashboard``) and the live monitor (``repro obs watch
--summary-json``) fold whatever artifacts a run left behind —
sweep records, metric snapshots, JSONL traces — through the coverage,
speed-up, attribution and anomaly layers into one
:class:`~.findings.AnalysisReport`, and every renderer (:mod:`.render`,
:mod:`.dashboard`) reads that report's dict.

Only simulated quantities enter the report (phase totals, busy seconds,
traffic, counts) — never wall-clock measurements — so the report for a
given config is byte-identical across serial and parallel sweeps and
across repeated invocations. Records are sorted into one canonical
order first, so a sweep's saved records and the same records tailed
off its bus report byte for byte alike.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from typing import Dict, Iterable, List, Optional, Sequence

from ...experiments.analysis import (
    record_speedups,
    robustness_summary,
    speedup_summary,
)
from ...experiments.export import record_to_dict
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
from .findings import AnalysisReport, Finding
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
    result: Dict[str, Dict[str, object]] = {}
    for engine, group in _by_engine(
        r for r in records
        if "traffic_matrix" in (getattr(r, "obs_metrics", None) or {})
    ).items():
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


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _by_engine(records: Iterable) -> Dict[str, List]:
    """Records grouped by training system, engines in sorted order."""
    groups: Dict[str, List] = {}
    for record in records:
        groups.setdefault(record.engine, []).append(record)
    return dict(sorted(groups.items()))


def _fold(table: Dict, items: Dict, combine) -> None:
    """``table[key] = combine(table[key], value)`` per item; a new key
    takes its value as it is."""
    for key, value in items.items():
        table[key] = combine(table[key], value) if key in table else value


def _coverage(records: Sequence) -> Dict[str, object]:
    """What was swept: record count, the graph / partitioner / machine
    axes, and per-engine mean epoch time and traffic."""
    engines: Dict[str, Dict[str, object]] = {}
    for engine, group in _by_engine(records).items():
        engines[engine] = {
            "num_records": len(group),
            "mean_epoch_seconds": _mean([r.epoch_seconds for r in group]),
            "mean_network_bytes": _mean([r.network_bytes for r in group]),
        }
        oom = sum(1 for r in group if getattr(r, "out_of_memory", False))
        if oom:
            engines[engine]["out_of_memory_runs"] = oom
    return {
        "num_records": len(records),
        "graphs": sorted({r.graph for r in records}),
        "partitioners": sorted({r.partitioner for r in records}),
        "machine_counts": sorted({r.num_machines for r in records}),
        "engines": engines,
    }


def _distribution_rows(engine: str, summaries: Dict) -> List[Dict]:
    """One row per (graph, partitioner, k) distribution summary."""
    return [
        {
            "engine": engine,
            "graph": graph,
            "partitioner": partitioner,
            "k": k,
            **dataclasses.asdict(summary),
        }
        for (graph, partitioner, k), summary in sorted(summaries.items())
    ]


def _speedups(records: Sequence) -> Dict[str, object]:
    """Speed-up over Random per (engine, graph, partitioner, k).

    Only records whose Random baseline (same graph, k, params, comm and
    fault config) is present contribute; the rest are counted, never an
    error — a served job for ``partitioners=["hdrf"]`` has no baseline
    at all.
    """
    rows: List[Dict] = []
    missing = 0
    for engine, group in _by_engine(records).items():
        covered = [record for record, _ in record_speedups(group)]
        missing += len(group) - len(covered)
        rows.extend(
            row
            for row in _distribution_rows(engine, speedup_summary(covered))
            if row["partitioner"] != "random"
        )
    return {"rows": rows, "cells_without_baseline": missing}


def _faults(records: Sequence) -> Optional[Dict[str, object]]:
    """Fault totals and per-cell recovery overhead of the records swept
    under a fault config; ``None`` for a fault-free run."""
    faulty = [
        r for r in records if getattr(r, "fault_config", None) is not None
    ]
    if not faulty:
        return None
    return {
        "num_fault_records": len(faulty),
        "crashes": sum(r.crashes for r in faulty),
        "slowdowns": sum(r.slowdowns for r in faulty),
        "lost_messages": sum(r.lost_messages for r in faulty),
        "recovery_seconds_total": sum(r.recovery_seconds for r in faulty),
        "mean_recovery_fraction": _mean(
            [
                r.recovery_seconds / r.makespan_seconds
                for r in faulty
                if r.makespan_seconds > 0
            ]
        ),
        "recovery_overhead": [
            row
            for engine, group in _by_engine(faulty).items()
            for row in _distribution_rows(engine, robustness_summary(group))
        ],
    }


def _telemetry(records: Sequence) -> Optional[Dict[str, object]]:
    """Totals over the records' ``obs_metrics`` (phase seconds are the
    report's ``phase_mix``); ``None`` when no record carries any."""
    observed = [r for r in records if getattr(r, "obs_metrics", None)]
    if not observed:
        return None
    totals = dict.fromkeys(
        ("bytes_sent_total", "bytes_received_total", "lost_messages_total"), 0
    )
    marks: Dict[str, int] = {}
    memory_peaks: Dict[str, float] = {}
    traffic_phase: Dict[str, float] = {}
    matrix_total = 0.0
    for record in observed:
        metrics = record.obs_metrics
        _fold(totals, {n: metrics.get(n, 0) for n in totals}, operator.add)
        _fold(marks, metrics.get("marks", {}), operator.add)
        _fold(
            traffic_phase, metrics.get("traffic_phase_bytes", {}), operator.add
        )
        worst_machine = {
            category: max(peaks)
            for category, peaks
            in metrics.get("memory_category_peaks", {}).items()
        }
        _fold(memory_peaks, worst_machine, max)
        matrix_total += sum(
            sum(row) for row in metrics.get("traffic_matrix", ())
        )
    return {
        "num_observed_records": len(observed),
        **totals,
        "marks": dict(sorted(marks.items())),
        "memory_category_peaks": dict(sorted(memory_peaks.items())),
        "traffic_phase_bytes": dict(sorted(traffic_phase.items())),
        "traffic_matrix_bytes_total": matrix_total,
    }


def _comm_configs(tradeoff: Dict) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-engine, per-comm-config totals over a tradeoff table: its
    points folded back into sums over cells (bytes and codec seconds
    are per-epoch sums, the error is the worst cell) — the report's
    communication table and the sweep's printed traffic summary."""
    result: Dict[str, Dict[str, Dict[str, float]]] = {}
    for engine, by_partitioner in sorted(tradeoff.items()):
        configs: Dict[str, Dict[str, float]] = {}
        for point in (p for points in by_partitioner.values() for p in points):
            cells = point["cells"]
            entry = configs.setdefault(
                point["comm"], {"accuracy_proxy_error": 0.0}
            )
            sums = {
                "cells": cells,
                "wire_bytes": point["wire_bytes"] * cells,
                "saved_bytes": point["saved_bytes"] * cells,
                "codec_seconds": point["codec_seconds"] * cells,
                "frontier_cells": cells if point["on_frontier"] else 0,
            }
            _fold(entry, sums, operator.add)
            entry["accuracy_proxy_error"] = max(
                entry["accuracy_proxy_error"], point["accuracy_proxy_error"]
            )
        for entry in configs.values():
            raw = entry["wire_bytes"] + entry["saved_bytes"]
            entry["saved_fraction"] = entry["saved_bytes"] / raw if raw else 0.0
        result[engine] = dict(sorted(configs.items()))
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


def _record_order(record) -> tuple:
    """Canonical sort key: the record's identity (engine, graph, k,
    partitioner, params, fault and comm config), then its export JSON.
    The report sums floats across records, so it sorts them first and
    never depends on the order they were loaded or streamed in. The
    identity goes first because the JSON holds the wall-clock
    ``partitioning_seconds`` ahead of the configs."""
    data = record_to_dict(record)["data"]
    configs = tuple(
        tuple((data[name] or {}).values())
        for name in ("params", "fault_config", "comm_config")
    )
    return (
        record.engine, record.graph, record.num_machines,
        record.partitioner, configs, json.dumps(data),
    )


def build_analysis_report(
    run: RunData,
    thresholds: Optional[AnomalyThresholds] = None,
) -> AnalysisReport:
    """Diagnose one loaded run into an :class:`AnalysisReport`."""
    thresholds = thresholds or AnomalyThresholds()
    records = sorted(run.records, key=_record_order)

    # Record totals win (they cover every cell); the snapshot's
    # ``cluster.phase_seconds`` series is the fallback.
    phase_totals = record_phase_totals(
        records
    ) or snapshot_phase_totals(run.metrics)
    phase_mix = attribute_phase_totals(phase_totals)
    breakdown = per_partitioner_breakdown(records)
    machines = _machine_table(run.metrics)

    findings = []
    findings.extend(detect_record_anomalies(records, thresholds))
    findings.extend(detect_snapshot_anomalies(run.metrics, thresholds))
    findings.extend(_trace_phase_findings(run, thresholds))
    if run.skipped_lines:
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
    tradeoff = traffic_accuracy_tradeoff(records)
    summary: Dict[str, object] = {
        "engines": sorted(_by_engine(records)),
        "coverage": _coverage(records),
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
            "resources": resource_depth(records),
            "speedups": _speedups(records),
            "faults": _faults(records),
            "comm_tradeoff": tradeoff,
            "comm_configs": _comm_configs(tradeoff),
            "telemetry": _telemetry(records),
        },
        findings=findings,
    )
