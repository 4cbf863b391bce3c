"""Deterministic anomaly detection over telemetry series.

All detectors are seed-free and wall-clock-free: they consume simulated
quantities and use robust rolling statistics (median / MAD z-scores), so
the same telemetry always yields the same findings — serial and parallel
sweeps of one config diagnose identically, and repeated invocations are
byte-stable.

The MAD is floored at a fraction of the local median
(:attr:`AnomalyThresholds.mad_floor_fraction`), so an exactly-constant
series — common in a deterministic simulator — still flags genuine
departures without amplifying float noise into false positives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..registry import snapshot_totals
from .attribution import is_recovery_phase
from .findings import Finding, cell_key

__all__ = [
    "AnomalyThresholds",
    "rolling_mad_zscores",
    "detect_series_anomalies",
    "detect_record_anomalies",
    "detect_snapshot_anomalies",
]

#: Scale factor making the MAD consistent with a normal sigma.
_MAD_TO_SIGMA = 0.6745


@dataclass(frozen=True)
class AnomalyThresholds:
    """Seedable, explicit thresholds for every detector.

    Defaults are conservative; pass a customised instance to tighten or
    relax a sweep gate. All detectors take the thresholds explicitly so
    two analyses with equal thresholds are bit-for-bit reproducible.
    """

    #: Robust z-score above which a series point is anomalous.
    z_threshold: float = 3.5
    #: Trailing window length for rolling median/MAD.
    window: int = 8
    #: Minimum prior points before a z-score is computed at all.
    min_points: int = 4
    #: MAD is floored at this fraction of the local median (noise floor).
    mad_floor_fraction: float = 0.05
    #: Recovery share of wall time that warrants a warning / critical.
    recovery_fraction_warn: float = 0.10
    recovery_fraction_critical: float = 0.25
    #: Cache hit rate below this (with enough traffic) is a collapse.
    cache_hit_rate_floor: float = 0.5
    cache_min_requests: int = 100
    #: Busiest/mean machine busy-time ratio that flags imbalance.
    busy_ratio_warn: float = 1.5
    #: A single phase above this share of wall time dominates the run.
    phase_dominance_fraction: float = 0.75

    def to_dict(self) -> Dict[str, float]:
        """Plain dict (recorded into reports for reproducibility)."""
        return asdict(self)


def _robust_zscores(
    values: np.ndarray, reference: np.ndarray, mad_floor_fraction: float
) -> Tuple[np.ndarray, float]:
    """Robust z-scores of ``values`` against the median/MAD of
    ``reference``, and that median. The MAD is floored at
    ``mad_floor_fraction * |median|`` so a constant reference flags
    genuine departures without dividing by zero."""
    median = float(np.median(reference))
    mad = float(np.median(np.abs(reference - median)))
    mad = max(mad, mad_floor_fraction * abs(median), 1e-12)
    return _MAD_TO_SIGMA * (values - median) / mad, median


def rolling_mad_zscores(
    values: Sequence[float],
    window: int = 8,
    min_points: int = 4,
    mad_floor_fraction: float = 0.05,
) -> np.ndarray:
    """Robust z-score of each point against its trailing window.

    Point ``i`` is scored against the median/MAD of the up-to-``window``
    points *before* it (never including itself, so a level shift scores
    on arrival); the first ``min_points`` points score 0. The MAD is
    floored at ``mad_floor_fraction * |median|`` so constant series flag
    genuine departures without dividing by zero.
    """
    values = np.asarray(values, dtype=np.float64)
    scores = np.zeros(values.size)
    for i in range(values.size):
        prior = values[max(0, i - window): i]
        if prior.size < min_points:
            continue
        scores[i], _ = _robust_zscores(
            values[i], prior, mad_floor_fraction
        )
    return scores


def detect_series_anomalies(
    name: str,
    values: Sequence[float],
    thresholds: AnomalyThresholds = AnomalyThresholds(),
    kind: str = "series-anomaly",
    unit: str = "",
) -> List[Finding]:
    """Flag points whose rolling MAD z-score exceeds the threshold."""
    values = np.asarray(values, dtype=np.float64)
    scores = rolling_mad_zscores(
        values,
        window=thresholds.window,
        min_points=thresholds.min_points,
        mad_floor_fraction=thresholds.mad_floor_fraction,
    )
    findings = []
    for i in np.flatnonzero(np.abs(scores) >= thresholds.z_threshold):
        i = int(i)
        direction = "above" if scores[i] > 0 else "below"
        findings.append(
            Finding(
                kind=kind,
                severity="warning",
                subject=name,
                message=(
                    f"{name}[{i}] = {values[i]:.6g}{unit} is {direction} "
                    f"its trailing window "
                    f"(robust z = {scores[i]:.2f})"
                ),
                value=float(abs(scores[i])),
                threshold=thresholds.z_threshold,
                context={
                    "index": i,
                    "observed": float(values[i]),
                    "zscore": float(scores[i]),
                },
            )
        )
    return findings


def _recovery_findings(
    subject: str,
    recovery_seconds: float,
    total_seconds: float,
    thresholds: AnomalyThresholds,
) -> List[Finding]:
    """Recovery-share finding for one run/cell, if above the bar."""
    if total_seconds <= 0:
        return []
    fraction = recovery_seconds / total_seconds
    if fraction < thresholds.recovery_fraction_warn:
        return []
    severity = (
        "critical"
        if fraction >= thresholds.recovery_fraction_critical
        else "warning"
    )
    return [
        Finding(
            kind="recovery-spike",
            severity=severity,
            subject=subject,
            message=(
                f"{subject}: {fraction:.1%} of wall time is recovery "
                f"overhead ({recovery_seconds:.4g}s of "
                f"{total_seconds:.4g}s)"
            ),
            value=fraction,
            threshold=thresholds.recovery_fraction_warn,
            context={
                "recovery_seconds": recovery_seconds,
                "total_seconds": total_seconds,
            },
        )
    ]


def detect_record_anomalies(
    records: Sequence,
    thresholds: AnomalyThresholds = AnomalyThresholds(),
) -> List[Finding]:
    """Diagnose a set of sweep records.

    Flags epoch-time outliers across the partitioners of each
    (engine, graph, machines, params) group, per-cell recovery spikes,
    and cells whose telemetry shows one phase dominating wall time.
    """
    findings: List[Finding] = []

    groups: Dict[tuple, List] = {}
    for record in records:
        key = (
            record.engine,
            record.graph,
            record.num_machines,
            record.params.label(),
        )
        groups.setdefault(key, []).append(record)

    for key in sorted(groups):
        group = sorted(groups[key], key=lambda r: r.partitioner)
        if len(group) >= max(3, thresholds.min_points):
            times = np.array([r.epoch_seconds for r in group])
            scores, median = _robust_zscores(
                times, times, thresholds.mad_floor_fraction
            )
            for record, score in zip(group, scores):
                if abs(score) < thresholds.z_threshold:
                    continue
                direction = "slower" if score > 0 else "faster"
                findings.append(
                    Finding(
                        kind="epoch-time-outlier",
                        severity="warning",
                        subject=cell_key(record),
                        message=(
                            f"{record.partitioner} is an epoch-time "
                            f"outlier ({record.epoch_seconds:.4g}s, "
                            f"robust z = {score:.2f}, {direction} than "
                            f"the {len(group)}-partitioner group "
                            f"median {median:.4g}s)"
                        ),
                        value=float(abs(score)),
                        threshold=thresholds.z_threshold,
                        context={
                            "epoch_seconds": record.epoch_seconds,
                            "group_median_seconds": median,
                            "zscore": float(score),
                        },
                    )
                )

    for record in records:
        makespan = getattr(record, "makespan_seconds", 0.0)
        findings.extend(
            _recovery_findings(
                cell_key(record),
                getattr(record, "recovery_seconds", 0.0),
                makespan,
                thresholds,
            )
        )
        metrics = getattr(record, "obs_metrics", None)
        if metrics:
            phase_totals = metrics.get("phase_seconds", {})
            total = sum(phase_totals.values())
            for name in sorted(phase_totals):
                seconds = phase_totals[name]
                fraction = seconds / total if total else 0.0
                if (
                    fraction >= thresholds.phase_dominance_fraction
                    and not is_recovery_phase(name)
                ):
                    findings.append(
                        Finding(
                            kind="phase-dominance",
                            severity="info",
                            subject=cell_key(record),
                            message=(
                                f"{cell_key(record)}: phase {name!r} "
                                f"accounts for {fraction:.1%} of "
                                "recorded phase time"
                            ),
                            value=fraction,
                            threshold=(
                                thresholds.phase_dominance_fraction
                            ),
                            context={
                                "phase": name,
                                "phase_seconds": seconds,
                                "total_seconds": total,
                            },
                        )
                    )
    return findings


def detect_snapshot_anomalies(
    snapshot: Sequence[Dict[str, object]],
    thresholds: AnomalyThresholds = AnomalyThresholds(),
) -> List[Finding]:
    """Diagnose a metrics snapshot (``obs.snapshot()`` output).

    Flags cache-hit-rate collapses (feature cache and partition cache)
    and per-machine busy-time imbalance.
    """
    findings: List[Finding] = []
    totals = snapshot_totals(snapshot)
    busy: Dict[int, float] = {}
    for entry in snapshot:
        if entry.get("name") == "cluster.machine_busy_seconds":
            machine = int(entry.get("labels", {}).get("machine", 0))
            busy[machine] = busy.get(machine, 0.0) + float(
                entry.get("value", 0.0)
            )

    # The feature-cache hit counter is emitted even when no cache is
    # configured (it just stays 0), so zero hits there means "no cache",
    # not a collapse — it needs at least one hit as evidence a cache
    # exists. The partition cache's counters only appear when it runs,
    # so a zero hit rate there is a genuine collapse.
    for label, hits, total_requests, requires_hits in (
        (
            "feature-cache",
            totals.get("distdgl.cache_hits", 0.0),
            totals.get("distdgl.cache_hits", 0.0)
            + totals.get("distdgl.remote_input_vertices", 0.0),
            True,
        ),
        (
            "partition-cache",
            totals.get("partition_cache.hits", 0.0),
            totals.get("partition_cache.hits", 0.0)
            + totals.get("partition_cache.misses", 0.0),
            False,
        ),
    ):
        if total_requests < thresholds.cache_min_requests:
            continue
        if requires_hits and hits <= 0:
            continue
        rate = hits / total_requests
        if rate < thresholds.cache_hit_rate_floor:
            findings.append(
                Finding(
                    kind="cache-collapse",
                    severity="warning",
                    subject=label,
                    message=(
                        f"{label} hit rate collapsed to {rate:.1%} "
                        f"({hits:.0f} of {total_requests:.0f} requests; "
                        f"floor {thresholds.cache_hit_rate_floor:.0%})"
                    ),
                    value=rate,
                    threshold=thresholds.cache_hit_rate_floor,
                    context={
                        "hits": hits,
                        "requests": total_requests,
                    },
                )
            )

    if busy:
        values = np.array([busy[m] for m in sorted(busy)])
        mean = float(values.mean())
        if mean > 0:
            ratio = float(values.max()) / mean
            worst = int(sorted(busy)[int(values.argmax())])
            if ratio >= thresholds.busy_ratio_warn:
                findings.append(
                    Finding(
                        kind="machine-imbalance",
                        severity="warning",
                        subject=f"machine-{worst}",
                        message=(
                            f"machine {worst} is {ratio:.2f}x the mean "
                            "busy time across machines "
                            f"(threshold {thresholds.busy_ratio_warn}x)"
                        ),
                        value=ratio,
                        threshold=thresholds.busy_ratio_warn,
                        context={
                            "busy_seconds": float(values.max()),
                            "mean_busy_seconds": mean,
                            "num_machines": int(values.size),
                        },
                    )
                )

    lost = totals.get("cluster.lost_messages", 0.0)
    if lost > 0:
        findings.append(
            Finding(
                kind="lost-messages",
                severity="info",
                subject="cluster",
                message=(
                    f"{lost:.0f} injected lost messages were charged "
                    "to machine ports during the run"
                ),
                value=lost,
                threshold=0.0,
                context={"lost_messages": lost},
            )
        )
    return findings
