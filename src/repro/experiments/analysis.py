"""Statistical summaries over experiment records.

The paper's "distribution" figures (7, 9, 16) report, per cell, the
spread of a metric over all sweep configurations; these helpers compute
those summaries from flat record lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "DistributionSummary",
    "summarize",
    "record_speedups",
    "speedup_summary",
    "robustness_summary",
]


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-ish summary of one cell's metric distribution."""

    mean: float
    minimum: float
    q25: float
    median: float
    q75: float
    maximum: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DistributionSummary":
        """Summarize a non-empty sequence of values."""
        if not len(values):
            raise ValueError("cannot summarize an empty distribution")
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            q25=float(np.percentile(arr, 25)),
            median=float(np.percentile(arr, 50)),
            q75=float(np.percentile(arr, 75)),
            maximum=float(arr.max()),
            count=int(arr.size),
        )

    @property
    def spread(self) -> float:
        """Range of the distribution (maximum minus minimum)."""
        return self.maximum - self.minimum


def summarize(
    records: Sequence,
    metric: Callable[[object], float],
) -> Dict[Tuple, DistributionSummary]:
    """Summarize ``metric`` per (graph, partitioner, k)."""
    groups: Dict[Tuple, list] = {}
    for r in records:
        key = (r.graph, r.partitioner, r.num_machines)
        groups.setdefault(key, []).append(metric(r))
    return {
        key: DistributionSummary.from_values(values)
        for key, values in groups.items()
    }


def record_speedups(
    records: Sequence,
    baseline: str = "random",
    strict: bool = False,
) -> Iterator[Tuple[object, float]]:
    """Yield ``(record, speedup)`` over the ``baseline`` record with the
    same (graph, k, params, comm config, fault config).

    A record whose baseline is absent is skipped, or — with ``strict`` —
    raises ``ValueError``; records without a positive epoch time are
    always skipped.
    """
    def cell(r) -> Tuple:
        return (r.graph, r.num_machines, r.params, r.comm_config,
                r.fault_config)

    base = {
        cell(r): r.epoch_seconds
        for r in records
        if r.partitioner.lower() == baseline
    }
    for r in records:
        reference = base.get(cell(r))
        if reference is None and strict:
            raise ValueError(
                f"missing {baseline!r} baseline for "
                f"({r.graph}, {r.num_machines}, {r.params.label()})"
            )
        if reference is not None and r.epoch_seconds > 0:
            yield r, reference / r.epoch_seconds


def speedup_summary(records: Sequence) -> Dict[Tuple, DistributionSummary]:
    """Speedup-over-random distributions per (graph, partitioner, k).

    Every record's ``random`` baseline (see :func:`record_speedups`)
    must be present in ``records``.
    """
    groups: Dict[Tuple, list] = {}
    for r, speedup in record_speedups(records, strict=True):
        key = (r.graph, r.partitioner, r.num_machines)
        groups.setdefault(key, []).append(speedup)
    return {
        key: DistributionSummary.from_values(values)
        for key, values in groups.items()
    }


def robustness_summary(
    records: Sequence,
) -> Dict[Tuple, DistributionSummary]:
    """Recovery-overhead distributions per (graph, partitioner, k).

    The metric is the fraction of the run's makespan spent on recovery
    (failure detection, backoff, restore/restart, replayed epochs) —
    skewed partitions lose more state per crash and re-balance worse
    after degradation, so this is the robustness axis of a fault sweep.
    Records without fault accounting (``makespan_seconds == 0``)
    contribute an overhead of 0.
    """

    def overhead(record) -> float:
        if record.makespan_seconds <= 0:
            return 0.0
        return record.recovery_seconds / record.makespan_seconds

    return summarize(records, overhead)
