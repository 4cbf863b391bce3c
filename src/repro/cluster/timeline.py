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

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

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
        # Defensive copy, then freeze: the dataclass is frozen, so the
        # array it holds must not be writable through an outside alias.
        arr = np.array(self.per_machine_seconds, dtype=np.float64)
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


_row_max = np.maximum.reduce  # ndarray.max without its Python wrapper

_PHASE_SECONDS = obs.Bound("cluster.phase_seconds", "phase")
_BUSY_SECONDS = obs.Bound("cluster.machine_busy_seconds", "machine")


class Timeline:
    """Ordered log of phases and point-in-time marks for one run.

    Phases are columns: a growable (phases x ``num_machines``) float64
    block — as wide as the first phase when built without a width —
    beside lists of names, interrupted flags and straggler durations.
    """

    def __init__(self, num_machines: Optional[int] = None) -> None:
        self.marks: List[TimelineMark] = []
        self._seconds = np.empty((16, num_machines or 0))
        self._names: List[str] = []
        self._interrupted: List[bool] = []
        self._durations: List[float] = []

    def add_phase(
        self,
        name: str,
        per_machine_seconds: np.ndarray,
        interrupted: bool = False,
    ) -> float:
        """Append a phase and return its straggler-bound duration."""
        seconds = np.asarray(per_machine_seconds, dtype=np.float64)
        return self._append((name,), seconds[np.newaxis], interrupted)[0]

    def add_phases(self, names: Sequence[str], block) -> List[float]:
        """Append a ``(phases x num_machines)`` block, row ``i`` named
        ``names[i]``, as that many :meth:`add_phase` calls would; returns
        the durations."""
        return self._append(names, np.asarray(block, dtype=np.float64), False)

    def _append(self, names, block, interrupted: bool) -> List[float]:
        if self._seconds.shape[1] == 0 and block.ndim == 2:
            self._seconds = np.empty((16, block.shape[1]))
        width = self._seconds.shape[1]
        if width == 0 or block.shape != (len(names), width):
            raise ValueError(
                f"phases {list(names)!r}: per_machine_seconds must be a "
                f"non-empty 1-D array of {width or 'n'} values per phase, "
                f"got {block.shape[1:]}"
            )
        durations = _row_max(block, axis=1).tolist()
        # A NaN or +inf in a row is its maximum, and makes the sum one.
        if durations and not (
            min(block.ravel().tolist()) >= 0 and math.isfinite(sum(durations))
        ):
            raise ValueError("phase times must be finite and non-negative")
        row = len(self._names)
        while row + len(names) > len(self._seconds):  # full: double it
            self._seconds = np.concatenate([self._seconds, self._seconds])
        self._seconds[row:row + len(names)] = block
        self._names.extend(names)
        self._interrupted.extend([interrupted] * len(names))
        self._durations.extend(durations)
        if obs.enabled():
            for name, duration, seconds in zip(
                names, durations, block.tolist()
            ):
                _PHASE_SECONDS[name].observe(duration)
                for machine, busy in enumerate(seconds):
                    _BUSY_SECONDS[machine].add(busy)
                obs.event(
                    "phase", name, seconds=duration, interrupted=interrupted,
                )
        return durations

    @property
    def records(self) -> List[PhaseRecord]:
        """The phases in order, as read-only records (built per access)."""
        phases = zip(self._names, self._seconds, self._interrupted)
        return [PhaseRecord(*phase) for phase in phases]

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
        return sum(self._durations)

    def phase_totals(self) -> Dict[str, float]:
        """Total straggler seconds per phase name."""
        totals: Dict[str, float] = {}
        for name, duration in zip(self._names, self._durations):
            totals[name] = totals.get(name, 0.0) + duration
        return totals

    def interrupted_records(self) -> List[PhaseRecord]:
        """Phases a fault cut short."""
        return [record for record in self.records if record.interrupted]

    def recovery_seconds(self) -> float:
        """Straggler seconds spent on failure handling and replay."""
        return sum(
            duration
            for name, duration in zip(self._names, self._durations)
            if name.startswith(RECOVERY_PHASE_PREFIXES)
        )

    def checkpoint_seconds(self) -> float:
        """Straggler seconds spent writing checkpoints."""
        return self.phase_totals().get("checkpoint", 0.0)

    def per_machine_totals(self) -> np.ndarray:
        """Summed busy time per machine (for balance plots), phase by
        phase in order."""
        if not self._names:
            return np.zeros(0)
        return np.cumsum(self._seconds[: len(self._names)], axis=0)[-1]
