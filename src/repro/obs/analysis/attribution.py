"""Critical-path, straggler and imbalance attribution.

The paper's headline analyses are attributions: which phase dominates
epoch time per partitioner (Figs. 19/21/22/25) and which machines bound
the barriers (Figs. 5/14/17). Under barrier semantics every phase lasts
as long as its slowest worker, so from the recorded per-machine vectors
the makespan decomposes exactly::

    duration = mean(per_machine) + (max(per_machine) - mean(per_machine))
             = compute share       + skew share

summed over occurrences. :func:`attribute_timeline` computes that
decomposition — plus per-machine straggler frequency/severity and the
recovery/checkpoint shares — from a live
:class:`~repro.cluster.timeline.Timeline`;
:func:`attribute_phase_totals` produces the coarser phase-mix table
from the scalar phase totals that sweep records carry in
``obs_metrics`` (no per-machine vectors there, so no skew split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from ...cluster.timeline import RECOVERY_PHASE_PREFIXES

__all__ = [
    "PhaseAttribution",
    "MachineAttribution",
    "TimelineAttribution",
    "attribute_timeline",
    "attribute_phase_totals",
    "is_recovery_phase",
    "record_phase_totals",
    "snapshot_phase_totals",
]

#: Phase name carrying checkpoint-write time (see cluster.timeline).
CHECKPOINT_PHASE = "checkpoint"


def is_recovery_phase(name: str) -> bool:
    """True for phases that are pure recovery overhead (fault handling
    and post-restore replay)."""
    return name.startswith(RECOVERY_PHASE_PREFIXES)


@dataclass(frozen=True)
class PhaseAttribution:
    """Aggregated contribution of one phase name to the makespan."""

    name: str
    occurrences: int
    total_seconds: float
    #: Share of the timeline's total (straggler) seconds.
    fraction: float
    #: Sum over occurrences of the per-machine mean — the work a
    #: perfectly balanced cluster would still have paid.
    compute_seconds: float
    #: Sum over occurrences of (straggler - mean) — pure skew cost.
    skew_seconds: float
    #: total_seconds / compute_seconds (1.0 = perfectly balanced).
    imbalance: float
    interrupted_occurrences: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict."""
        return {
            "name": self.name,
            "occurrences": self.occurrences,
            "total_seconds": self.total_seconds,
            "fraction": self.fraction,
            "compute_seconds": self.compute_seconds,
            "skew_seconds": self.skew_seconds,
            "imbalance": self.imbalance,
            "interrupted_occurrences": self.interrupted_occurrences,
            "recovery": is_recovery_phase(self.name),
        }


@dataclass(frozen=True)
class MachineAttribution:
    """One machine's busy time and how often it bound the barriers."""

    machine: int
    busy_seconds: float
    #: busy_seconds / mean busy seconds across machines.
    busy_ratio: float
    #: Occurrences in which this machine was the (first) straggler.
    straggler_count: int
    #: straggler_count / total phase occurrences.
    straggler_fraction: float
    #: Mean, over occurrences it bound, of (its time - occurrence mean)
    #: / occurrence mean — how much slower than the pack it ran.
    straggler_severity: float

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict."""
        return {
            "machine": self.machine,
            "busy_seconds": self.busy_seconds,
            "busy_ratio": self.busy_ratio,
            "straggler_count": self.straggler_count,
            "straggler_fraction": self.straggler_fraction,
            "straggler_severity": self.straggler_severity,
        }


@dataclass(frozen=True)
class TimelineAttribution:
    """Full decomposition of one timeline's simulated wall time."""

    total_seconds: float
    compute_seconds: float
    skew_seconds: float
    recovery_seconds: float
    checkpoint_seconds: float
    num_machines: int
    num_occurrences: int
    #: Per phase name, sorted by total seconds descending (the critical
    #: path reads top-down).
    phases: List[PhaseAttribution]
    #: Per machine, in machine order.
    machines: List[MachineAttribution]

    @property
    def skew_fraction(self) -> float:
        """Share of wall time attributable to load skew."""
        return self.skew_seconds / self.total_seconds if self.total_seconds else 0.0

    @property
    def recovery_fraction(self) -> float:
        """Share of wall time spent on failure handling and replay."""
        return (
            self.recovery_seconds / self.total_seconds
            if self.total_seconds
            else 0.0
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able dict."""
        return {
            "total_seconds": self.total_seconds,
            "compute_seconds": self.compute_seconds,
            "skew_seconds": self.skew_seconds,
            "skew_fraction": self.skew_fraction,
            "recovery_seconds": self.recovery_seconds,
            "recovery_fraction": self.recovery_fraction,
            "checkpoint_seconds": self.checkpoint_seconds,
            "num_machines": self.num_machines,
            "num_occurrences": self.num_occurrences,
            "phases": [phase.to_dict() for phase in self.phases],
            "machines": [machine.to_dict() for machine in self.machines],
        }


def attribute_timeline(timeline) -> TimelineAttribution:
    """Decompose a :class:`~repro.cluster.timeline.Timeline`.

    ``timeline`` is duck-typed (needs ``records`` of
    :class:`~repro.cluster.timeline.PhaseRecord`), so replayed or
    synthetic timelines analyze the same way as live ones. Ties for the
    straggler go to the lowest machine index (``argmax`` semantics), so
    the attribution is deterministic.
    """
    records = list(timeline.records)
    num_machines = max(
        (record.per_machine_seconds.size for record in records), default=0
    )

    per_phase: Dict[str, Dict[str, float]] = {}
    busy = np.zeros(num_machines)
    straggler_count = np.zeros(num_machines, dtype=np.int64)
    severity_sum = np.zeros(num_machines)
    total = compute = skew = checkpoint = recovery = 0.0

    for record in records:
        vector = record.per_machine_seconds
        duration = float(vector.max())
        mean = float(vector.mean())
        stats = per_phase.setdefault(
            record.name,
            {
                "occurrences": 0,
                "total": 0.0,
                "compute": 0.0,
                "skew": 0.0,
                "interrupted": 0,
            },
        )
        stats["occurrences"] += 1
        stats["total"] += duration
        stats["compute"] += mean
        stats["skew"] += duration - mean
        if record.interrupted:
            stats["interrupted"] += 1

        total += duration
        compute += mean
        skew += duration - mean
        if record.name == CHECKPOINT_PHASE:
            checkpoint += duration
        if is_recovery_phase(record.name):
            recovery += duration

        busy[: vector.size] += vector
        bound_by = int(vector.argmax())
        straggler_count[bound_by] += 1
        if mean > 0:
            severity_sum[bound_by] += (duration - mean) / mean

    phases = [
        PhaseAttribution(
            name=name,
            occurrences=int(stats["occurrences"]),
            total_seconds=stats["total"],
            fraction=stats["total"] / total if total else 0.0,
            compute_seconds=stats["compute"],
            skew_seconds=stats["skew"],
            imbalance=(
                stats["total"] / stats["compute"]
                if stats["compute"]
                else 1.0
            ),
            interrupted_occurrences=int(stats["interrupted"]),
        )
        for name, stats in per_phase.items()
    ]
    phases.sort(key=lambda p: (-p.total_seconds, p.name))

    mean_busy = float(busy.mean()) if num_machines else 0.0
    occurrences = len(records)
    machines = [
        MachineAttribution(
            machine=m,
            busy_seconds=float(busy[m]),
            busy_ratio=float(busy[m]) / mean_busy if mean_busy else 1.0,
            straggler_count=int(straggler_count[m]),
            straggler_fraction=(
                int(straggler_count[m]) / occurrences if occurrences else 0.0
            ),
            straggler_severity=(
                float(severity_sum[m]) / int(straggler_count[m])
                if straggler_count[m]
                else 0.0
            ),
        )
        for m in range(num_machines)
    ]

    return TimelineAttribution(
        total_seconds=total,
        compute_seconds=compute,
        skew_seconds=skew,
        recovery_seconds=recovery,
        checkpoint_seconds=checkpoint,
        num_machines=num_machines,
        num_occurrences=occurrences,
        phases=phases,
        machines=machines,
    )


def record_phase_totals(records: Sequence) -> Dict[str, float]:
    """Per-phase seconds summed over the records' ``obs_metrics``
    (records without telemetry contribute nothing)."""
    totals: Dict[str, float] = {}
    for record in records:
        metrics = getattr(record, "obs_metrics", None) or {}
        for phase, seconds in metrics.get("phase_seconds", {}).items():
            totals[phase] = totals.get(phase, 0.0) + float(seconds)
    return totals


def snapshot_phase_totals(
    snapshot: Sequence[Mapping[str, object]]
) -> Dict[str, float]:
    """Per-phase seconds from a snapshot's ``cluster.phase_seconds``
    series."""
    totals: Dict[str, float] = {}
    for entry in snapshot:
        if entry.get("name") != "cluster.phase_seconds":
            continue
        phase = str(entry.get("labels", {}).get("phase", ""))
        totals[phase] = totals.get(phase, 0.0) + float(
            entry.get("sum", 0.0)
        )
    return totals


def attribute_phase_totals(
    phase_totals: Mapping[str, float]
) -> Dict[str, object]:
    """Phase-mix table from scalar phase totals (record ``obs_metrics``).

    The coarse sibling of :func:`attribute_timeline` for inputs that
    carry no per-machine vectors: total seconds, per-phase fractions
    sorted by contribution, and the recovery/checkpoint shares.
    """
    total = float(sum(phase_totals.values()))
    phases = [
        {
            "name": name,
            "total_seconds": float(seconds),
            "fraction": float(seconds) / total if total else 0.0,
            "recovery": is_recovery_phase(name),
        }
        for name, seconds in phase_totals.items()
    ]
    phases.sort(key=lambda p: (-p["total_seconds"], p["name"]))
    recovery = sum(
        p["total_seconds"] for p in phases if p["recovery"]
    )
    checkpoint = float(phase_totals.get(CHECKPOINT_PHASE, 0.0))
    return {
        "total_seconds": total,
        "recovery_seconds": recovery,
        "recovery_fraction": recovery / total if total else 0.0,
        "checkpoint_seconds": checkpoint,
        "phases": phases,
    }
