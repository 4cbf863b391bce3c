"""Bulk-synchronous timeline with per-phase straggler accounting.

Distributed GNN training (both systems in the paper) proceeds in
barrier-separated phases; a phase lasts as long as its slowest worker.
The timeline records, per phase occurrence, both the straggler duration
and the full per-machine vector, so balance analyses (paper Figures 5, 14,
17) can be computed afterwards.

Fault sweeps add two things on top: phases can be flagged *interrupted*
(a fault cut them short — the recorded vector is the stall the cluster
actually paid), and the timeline carries instant *marks* (crash,
recovery, checkpoint events) that the Chrome-trace exporter renders as
instant events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..obs import api as obs

__all__ = ["PhaseRecord", "TimelineMark", "Timeline"]

#: Phases whose durations are pure recovery overhead: failure handling
#: (``fault-*``) and re-executed epochs after a restore (``replay:*``).
RECOVERY_PHASE_PREFIXES = ("fault-", "replay:")


@dataclass(frozen=True)
class PhaseRecord:
    """One named phase: per-machine busy seconds plus the straggler bound."""
    name: str
    per_machine_seconds: np.ndarray
    interrupted: bool = False

    def __post_init__(self) -> None:
        arr = np.asarray(self.per_machine_seconds, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(
                f"phase {self.name!r}: per_machine_seconds must be 1-D, "
                f"got shape {arr.shape}"
            )
        if arr.size == 0:
            raise ValueError(
                f"phase {self.name!r}: per_machine_seconds is empty — a "
                "phase needs at least one machine"
            )
        # Defensive copy, then freeze: the dataclass is frozen, so the
        # array it holds must not be writable through an outside alias.
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "per_machine_seconds", arr)

    @property
    def duration(self) -> float:
        """Straggler time: the barrier releases when the slowest finishes."""
        return float(self.per_machine_seconds.max())


@dataclass(frozen=True)
class TimelineMark:
    """An instant event on the timeline (fault, recovery, checkpoint)."""

    name: str
    kind: str
    at_seconds: float
    machine: Optional[int] = None


@dataclass
class Timeline:
    """Ordered log of phase records and point-in-time marks for one run."""
    records: List[PhaseRecord] = field(default_factory=list)
    marks: List[TimelineMark] = field(default_factory=list)

    def add_phase(
        self,
        name: str,
        per_machine_seconds: np.ndarray,
        interrupted: bool = False,
    ) -> float:
        """Append a phase record and return its straggler-bound duration."""
        per_machine_seconds = np.asarray(per_machine_seconds, dtype=np.float64)
        if (per_machine_seconds < 0).any():
            raise ValueError("phase times must be non-negative")
        record = PhaseRecord(name, per_machine_seconds, interrupted)
        self.records.append(record)
        if obs.enabled():
            obs.observe(
                "cluster.phase_seconds", record.duration, phase=name
            )
            for machine, seconds in enumerate(record.per_machine_seconds):
                obs.count(
                    "cluster.machine_busy_seconds",
                    float(seconds),
                    machine=machine,
                )
            obs.event(
                "phase", name,
                seconds=record.duration, interrupted=interrupted,
            )
        return record.duration

    def add_mark(
        self,
        name: str,
        kind: str = "fault",
        machine: Optional[int] = None,
    ) -> TimelineMark:
        """Stamp an instant event at the current end of the timeline."""
        mark = TimelineMark(name, kind, self.total_seconds, machine)
        self.marks.append(mark)
        obs.event(
            "mark", name,
            kind=kind, at_seconds=mark.at_seconds, machine=machine,
        )
        return mark

    @property
    def total_seconds(self) -> float:
        """Sum of all phase durations (the simulated makespan)."""
        return sum(record.duration for record in self.records)

    def phase_totals(self) -> Dict[str, float]:
        """Total straggler seconds per phase name."""
        totals: Dict[str, float] = {}
        for record in self.records:
            totals[record.name] = totals.get(record.name, 0.0) + record.duration
        return totals

    def straggler_phase_totals(self) -> Dict[str, float]:
        """Paper Section 5.3 methodology: per occurrence, take the slowest
        worker's time in each phase, then sum over occurrences per phase.
        (With barrier semantics this equals :meth:`phase_totals`.)
        """
        return self.phase_totals()

    def interrupted_records(self) -> List[PhaseRecord]:
        """Phases a fault cut short."""
        return [record for record in self.records if record.interrupted]

    def recovery_seconds(self) -> float:
        """Straggler seconds spent on failure handling and replay."""
        return sum(
            record.duration
            for record in self.records
            if record.name.startswith(RECOVERY_PHASE_PREFIXES)
        )

    def checkpoint_seconds(self) -> float:
        """Straggler seconds spent writing checkpoints."""
        return self.phase_totals().get("checkpoint", 0.0)

    def per_machine_totals(self) -> np.ndarray:
        """Summed busy time per machine (for balance plots)."""
        if not self.records:
            return np.zeros(0)
        total = np.zeros_like(self.records[0].per_machine_seconds)
        for record in self.records:
            total += record.per_machine_seconds
        return total
