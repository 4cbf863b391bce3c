"""Bench-history trend analysis: catch multi-PR slow creep.

``check_perf.py`` gates each PR *pairwise* against the recorded
baseline, so a sequence of changes each inside the pairwise threshold
can compound into a real slowdown that never trips a gate. ``repro
obs trend`` closes that hole: it reads the ``BENCH_partitioning.json``
history (one entry appended per ``bench_perf.py`` run) and runs two
detectors over every timing series:

* **rolling MAD z-scores** — the exact
  :func:`~..analysis.anomaly.detect_series_anomalies` machinery (same
  :class:`~..analysis.anomaly.AnomalyThresholds` defaults) flags a
  single entry that jumps out of its trailing window; and
* **total drift** — the robust creep check: the median of the oldest
  ``min_points`` entries vs the median of the newest ones; a ratio
  above ``creep_ratio`` flags the series even when every adjacent
  step was individually quiet.

Both detectors are deterministic functions of the history file, so
the CI job can run them on every PR.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.anomaly import (
    AnomalyThresholds,
    detect_series_anomalies,
)
from ..analysis.findings import Finding

__all__ = [
    "TrendThresholds",
    "extract_history_series",
    "detect_drift",
    "detect_trends",
    "load_bench_history",
    "render_trend_report",
]


@dataclasses.dataclass(frozen=True)
class TrendThresholds:
    """Knobs for the history-trend detectors.

    ``anomaly`` carries the shared rolling-MAD thresholds; the creep
    check fires when ``recent_median / oldest_median > creep_ratio``
    with at least ``min_entries`` history points and an oldest median
    above ``min_seconds`` (sub-jitter series never flag).
    """

    anomaly: AnomalyThresholds = AnomalyThresholds()
    creep_ratio: float = 1.25
    min_entries: int = 6
    min_seconds: float = 0.005
    tail: int = 3

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of every threshold knob."""
        return dataclasses.asdict(self)


def _maybe_series(
    series: Dict[str, List[float]], name: str, value: object
) -> None:
    """Append one numeric point; unwraps ``{"seconds": x}`` blocks."""
    if isinstance(value, dict):
        value = value.get("seconds")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        series.setdefault(name, []).append(float(value))


def extract_history_series(
    history: Sequence[Dict[str, object]],
) -> Dict[str, List[float]]:
    """Timing series per metric across history entries, oldest first.

    Covers the gated sections: per-kernel seconds (``kernels/*``),
    the sampling benchmark, and the overhead benchmarks' off-path
    seconds. Entries missing a key simply don't contribute to that
    series (older histories predate newer sections), so series may be
    shorter than the history.
    """
    series: Dict[str, List[float]] = {}
    for entry in history:
        kernels = entry.get("kernels") or {}
        if isinstance(kernels, dict):
            for name in sorted(kernels):
                _maybe_series(series, f"kernels/{name}", kernels[name])
        _maybe_series(series, "sampling", entry.get("sampling"))
        for section in ("obs_overhead", "profiling_overhead"):
            block = entry.get(section) or {}
            if isinstance(block, dict):
                _maybe_series(
                    series, f"{section}/off_seconds",
                    block.get("off_seconds"),
                )
                _maybe_series(
                    series, f"{section}/plain_seconds",
                    block.get("plain_seconds"),
                )
    return series


def detect_drift(
    name: str,
    values: Sequence[float],
    thresholds: TrendThresholds = TrendThresholds(),
) -> List[Finding]:
    """The slow-creep check: oldest-median vs newest-median ratio."""
    values = np.asarray(values, dtype=np.float64)
    head = thresholds.anomaly.min_points
    if values.size < max(thresholds.min_entries, head + 1):
        return []
    baseline = float(np.median(values[:head]))
    tail = min(thresholds.tail, values.size - head)
    recent = float(np.median(values[-tail:]))
    if baseline < thresholds.min_seconds:
        return []
    ratio = recent / baseline
    if ratio <= thresholds.creep_ratio:
        return []
    return [
        Finding(
            kind="perf-drift",
            severity="warning",
            subject=name,
            message=(
                f"{name} drifted {ratio:.2f}x over {values.size} "
                f"bench entries ({baseline:.4f}s -> {recent:.4f}s); "
                f"no single step tripped the pairwise gate"
            ),
            value=float(ratio),
            threshold=thresholds.creep_ratio,
            context={
                "baseline_median": baseline,
                "recent_median": recent,
                "entries": int(values.size),
            },
        )
    ]


def detect_trends(
    history: Sequence[Dict[str, object]],
    thresholds: TrendThresholds = TrendThresholds(),
) -> List[Finding]:
    """Run both detectors over every series in the bench history."""
    findings: List[Finding] = []
    series = extract_history_series(history)
    for name in sorted(series):
        values = series[name]
        findings.extend(
            detect_series_anomalies(
                name,
                values,
                thresholds.anomaly,
                kind="bench-series-anomaly",
                unit="s",
            )
        )
        findings.extend(detect_drift(name, values, thresholds))
    return findings


def load_bench_history(path: str) -> List[Dict[str, object]]:
    """The history entries (oldest first) of a schema-2 bench file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        history = data.get("history") or []
    else:  # schema 1: a bare list of reports
        history = data
    return [entry for entry in history if isinstance(entry, dict)]


def render_trend_report(
    findings: Sequence[Finding],
    series: Dict[str, List[float]],
    thresholds: TrendThresholds = TrendThresholds(),
) -> str:
    """Terminal summary: series coverage + every finding."""
    lines = [
        f"bench trend: {len(series)} series, "
        f"{max((len(v) for v in series.values()), default=0)} entries, "
        f"creep ratio {thresholds.creep_ratio:.2f}, "
        f"z {thresholds.anomaly.z_threshold:.1f}"
    ]
    if not findings:
        lines.append("no drift or anomalies detected")
        return "\n".join(lines)
    for finding in findings:
        lines.append(
            f"  [{finding.severity}] {finding.kind}: {finding.message}"
        )
    return "\n".join(lines)
