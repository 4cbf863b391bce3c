"""Cross-run regression diffing.

Compares two runs' telemetry — metric snapshots, sweep records, trace
event mixes — and emits a structured diff: metrics that appeared or
vanished, values that moved beyond configurable tolerances, and shifts
in the phase mix. Two uses, same machinery:

* **comparing partitioners / configs** (the paper's primary question):
  diff a METIS sweep against a Random sweep and read where the time
  went;
* **gating refactors**: a serial sweep diffed against a parallel sweep
  of the same config — or any run against itself — must diff *clean*
  (no regressions), which the CLI ``repro obs diff`` checks.

The simulator is deterministic, so for equal configs any delta beyond
float tolerance is a real behaviour change, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from .attribution import record_phase_totals, snapshot_phase_totals
from .findings import cell_key
from .load import RunData

__all__ = ["DiffTolerances", "RunDiff", "diff_snapshots", "diff_records", "diff_runs"]


@dataclass(frozen=True)
class DiffTolerances:
    """Relative tolerances for value comparisons.

    ``rel`` is the relative delta (against the larger magnitude) below
    which a change is ignored; ``abs_floor`` ignores absolute drift in
    values that are essentially zero on both sides.
    """

    rel: float = 1e-9
    abs_floor: float = 1e-12
    #: L1 distance between phase-mix fraction vectors that counts as a
    #: phase-mix shift worth flagging.
    phase_mix_shift: float = 0.02

    def exceeded(self, a: float, b: float) -> bool:
        """True when ``a -> b`` moves beyond the tolerances."""
        delta = abs(b - a)
        if delta <= self.abs_floor:
            return False
        scale = max(abs(a), abs(b))
        return delta > self.rel * scale


def _rel_delta(a: float, b: float) -> float:
    """Relative delta of ``a -> b`` against the larger magnitude."""
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


@dataclass
class RunDiff:
    """Structured result of diffing run ``a`` against run ``b``."""

    label_a: str = "a"
    label_b: str = "b"
    #: Metric series present only in b / only in a (sorted key strings).
    added_metrics: List[str] = field(default_factory=list)
    removed_metrics: List[str] = field(default_factory=list)
    #: Value moves beyond tolerance: {metric, field, a, b, rel_delta}.
    changed_metrics: List[Dict[str, object]] = field(default_factory=list)
    #: Phase-mix comparison: per-phase fractions plus the L1 shift.
    phase_mix: Dict[str, object] = field(default_factory=dict)
    #: Sweep cells present only in one run / changed beyond tolerance.
    added_cells: List[str] = field(default_factory=list)
    removed_cells: List[str] = field(default_factory=list)
    changed_cells: List[Dict[str, object]] = field(default_factory=list)
    #: Trace event-count mix per event kind, when both runs had traces.
    event_mix: Dict[str, object] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when nothing regressed: no added/removed/changed series,
        no cell drift, no phase-mix shift beyond tolerance."""
        return not (
            self.added_metrics
            or self.removed_metrics
            or self.changed_metrics
            or self.added_cells
            or self.removed_cells
            or self.changed_cells
            or self.phase_mix.get("shifted", False)
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict (canonical ordering)."""
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "clean": self.clean,
            "added_metrics": sorted(self.added_metrics),
            "removed_metrics": sorted(self.removed_metrics),
            "changed_metrics": self.changed_metrics,
            "phase_mix": self.phase_mix,
            "added_cells": sorted(self.added_cells),
            "removed_cells": sorted(self.removed_cells),
            "changed_cells": self.changed_cells,
            "event_mix": self.event_mix,
        }


def _metric_key(entry: Dict[str, object]) -> str:
    """Stable series key: ``name{label=value,...}``."""
    labels = entry.get("labels", {}) or {}
    if not labels:
        return str(entry["name"])
    inner = ",".join(
        f"{k}={v}" for k, v in sorted(labels.items())
    )
    return f"{entry['name']}{{{inner}}}"


#: Which value fields are compared, per instrument kind.
_COMPARED_FIELDS = {
    "counter": ("value",),
    "gauge": ("value", "max"),
    "histogram": ("count", "sum"),
    "timer": ("count", "sum"),
}


def _keyed_diff(
    items_a: Sequence,
    items_b: Sequence,
    key_of: Callable[[object], str],
    values_of: Callable[[object], Dict[str, float]],
    tolerances: DiffTolerances,
    what: str,
) -> Tuple[List[str], List[str], List[Dict[str, object]]]:
    """The one keyed comparison behind metric and cell diffs.

    Items are indexed by ``key_of`` and compared on ``values_of``.
    Returns the keys only in b, the keys only in a, and one ``{what,
    field, a, b, rel_delta}`` entry per shared key and field of a's
    item that moved beyond ``tolerances`` (a field missing on b's side
    compares as 0.0).
    """
    values_a = {key_of(item): values_of(item) for item in items_a}
    values_b = {key_of(item): values_of(item) for item in items_b}
    added = sorted(set(values_b) - set(values_a))
    removed = sorted(set(values_a) - set(values_b))
    changed: List[Dict[str, object]] = []
    for key in sorted(set(values_a) & set(values_b)):
        for fieldname, a in values_a[key].items():
            b = values_b[key].get(fieldname, 0.0)
            if tolerances.exceeded(a, b):
                changed.append(
                    {
                        what: key,
                        "field": fieldname,
                        "a": a,
                        "b": b,
                        "rel_delta": _rel_delta(a, b),
                    }
                )
    return added, removed, changed


def _metric_values(entry: Dict[str, object]) -> Dict[str, float]:
    """The compared fields of one snapshot entry, by instrument kind."""
    fields = _COMPARED_FIELDS.get(str(entry.get("kind")), ("value",))
    return {name: float(entry.get(name, 0.0)) for name in fields}


def _phase_fractions(totals: Dict[str, float]) -> Dict[str, float]:
    """Phase-name -> fraction of total phase seconds."""
    total = sum(totals.values())
    if not total:
        return {}
    return {phase: seconds / total for phase, seconds in totals.items()}


def _diff_phase_mix(
    fractions_a: Dict[str, float],
    fractions_b: Dict[str, float],
    tolerances: DiffTolerances,
) -> Dict[str, object]:
    """Per-phase fraction comparison plus the L1 shift."""
    if not fractions_a and not fractions_b:
        return {}
    phases = sorted(set(fractions_a) | set(fractions_b))
    table = {
        phase: {
            "a_fraction": fractions_a.get(phase, 0.0),
            "b_fraction": fractions_b.get(phase, 0.0),
        }
        for phase in phases
    }
    l1 = sum(
        abs(row["b_fraction"] - row["a_fraction"])
        for row in table.values()
    )
    return {
        "phases": table,
        "l1_shift": l1,
        "threshold": tolerances.phase_mix_shift,
        "shifted": l1 > tolerances.phase_mix_shift,
    }


def diff_snapshots(
    snapshot_a: Sequence[Dict[str, object]],
    snapshot_b: Sequence[Dict[str, object]],
    tolerances: DiffTolerances = DiffTolerances(),
    label_a: str = "a",
    label_b: str = "b",
) -> RunDiff:
    """Diff two metric snapshots (``obs.snapshot()`` output)."""
    diff = RunDiff(label_a=label_a, label_b=label_b)
    (
        diff.added_metrics, diff.removed_metrics, diff.changed_metrics
    ) = _keyed_diff(
        snapshot_a, snapshot_b, _metric_key, _metric_values,
        tolerances, "metric",
    )
    diff.phase_mix = _diff_phase_mix(
        _phase_fractions(snapshot_phase_totals(snapshot_a)),
        _phase_fractions(snapshot_phase_totals(snapshot_b)),
        tolerances,
    )
    return diff


#: Record fields compared per sweep cell (both engines share these).
#: ``partitioning_seconds`` is deliberately absent: it is a wall-clock
#: measurement and never comparable across runs.
_CELL_FIELDS = (
    "epoch_seconds",
    "network_bytes",
    "makespan_seconds",
    "recovery_seconds",
)


def _cell_values(record) -> Dict[str, float]:
    """The compared fields of one sweep record."""
    return {
        name: float(getattr(record, name, 0.0) or 0.0)
        for name in _CELL_FIELDS
    }


def diff_records(
    records_a: Sequence,
    records_b: Sequence,
    tolerances: DiffTolerances = DiffTolerances(),
    label_a: str = "a",
    label_b: str = "b",
) -> RunDiff:
    """Diff two sweep record sets, cell by cell."""
    diff = RunDiff(label_a=label_a, label_b=label_b)
    diff.added_cells, diff.removed_cells, diff.changed_cells = (
        _keyed_diff(
            records_a, records_b, cell_key, _cell_values,
            tolerances, "cell",
        )
    )

    diff.phase_mix = _diff_phase_mix(
        _phase_fractions(record_phase_totals(records_a)),
        _phase_fractions(record_phase_totals(records_b)),
        tolerances,
    )
    return diff


def _event_counts(events: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Event count per event kind."""
    counts: Dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", ""))
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def diff_runs(
    run_a: RunData,
    run_b: RunData,
    tolerances: DiffTolerances = DiffTolerances(),
) -> RunDiff:
    """Diff two loaded runs across every artifact both sides carry."""
    label_a = run_a.label or "a"
    label_b = run_b.label or "b"
    parts: List[Tuple[RunDiff, bool]] = []
    if run_a.metrics or run_b.metrics:
        parts.append(
            (
                diff_snapshots(
                    run_a.metrics, run_b.metrics, tolerances,
                    label_a, label_b,
                ),
                True,
            )
        )
    if run_a.records or run_b.records:
        parts.append(
            (
                diff_records(
                    run_a.records, run_b.records, tolerances,
                    label_a, label_b,
                ),
                not any(p[1] for p in parts),
            )
        )

    merged = RunDiff(label_a=label_a, label_b=label_b)
    for part, use_phase_mix in parts:
        merged.added_metrics.extend(part.added_metrics)
        merged.removed_metrics.extend(part.removed_metrics)
        merged.changed_metrics.extend(part.changed_metrics)
        merged.added_cells.extend(part.added_cells)
        merged.removed_cells.extend(part.removed_cells)
        merged.changed_cells.extend(part.changed_cells)
        # Snapshot phase mix wins (finer-grained); records are the
        # fallback when no snapshot was loaded.
        if part.phase_mix and (use_phase_mix or not merged.phase_mix):
            merged.phase_mix = part.phase_mix

    if run_a.events and run_b.events:
        counts_a = _event_counts(run_a.events)
        counts_b = _event_counts(run_b.events)
        merged.event_mix = {
            kind: {
                "a": counts_a.get(kind, 0),
                "b": counts_b.get(kind, 0),
            }
            for kind in sorted(set(counts_a) | set(counts_b))
        }
    return merged
