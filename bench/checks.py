"""Correctness checks of the benchmark; every check is a counted op.

An :class:`Ops` ledger counts everything a workload attempts — cells,
jobs, HTTP calls and the checks below — and what failed. A workload is
*correct* when nothing failed. Records are always handled in their
export form (``json.loads(records_to_json(...))``, a list of
``{"kind", "data"}`` dicts): it is what the daemon serves, so served,
parallel and serial records compare without conversion.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from typing import Dict, Iterable, List, Sequence

from repro.experiments import records_to_json
from repro.partitioning import (
    PartitionValidationError,
    validate_edge_partition,
    validate_vertex_partition,
)

#: The one wall-clock field of a record; dropped before comparing.
WALL_CLOCK_FIELD = "partitioning_seconds"


class Ops:
    """Attempted / failed operation counts plus the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        # The served-jobs client threads count concurrently.
        self._lock = threading.Lock()

    def ok(self, count: int = 1) -> None:
        """Count ``count`` operations that succeeded."""
        with self._lock:
            self.attempted += count

    def fail(self, message: str) -> None:
        """Count one failed operation and keep its message."""
        with self._lock:
            self.attempted += 1
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(message)

    def check(self, condition: bool, message: str) -> bool:
        """Count one check; ``message`` is kept when it fails."""
        if condition:
            self.ok()
        else:
            self.fail(message)
        return bool(condition)


def export_form(records: Sequence) -> List[Dict[str, object]]:
    """In-process records in the export form the daemon also serves."""
    return json.loads(records_to_json(records))


def comparable(exported: Iterable[Dict[str, object]]) -> List[Dict[str, object]]:
    """Exported records without their wall-clock field."""
    out = []
    for entry in exported:
        data = dict(entry["data"])
        data.pop(WALL_CLOCK_FIELD, None)
        out.append({"kind": entry["kind"], "data": data})
    return out


def records_sha256(exported: Iterable[Dict[str, object]]) -> str:
    """SHA-256 of the comparable records (printed, not gated: quality,
    not bit-identity, is the contract for multilevel kernels)."""
    blob = json.dumps(comparable(exported), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _finite(value: object) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return False


def check_records_finite(ops: Ops, exported: Sequence[Dict[str, object]]) -> None:
    """Every field of every record is a finite number (or not a number)."""
    for index, entry in enumerate(exported):
        ops.check(
            _finite(entry["data"]),
            f"record {index} ({entry['data'].get('partitioner')}) has a "
            "non-finite field",
        )


def check_records_equal(
    ops: Ops,
    what: str,
    got: Sequence[Dict[str, object]],
    want: Sequence[Dict[str, object]],
) -> None:
    """``got`` equals ``want`` record for record, wall clock aside."""
    got, want = comparable(got), comparable(want)
    if not ops.check(
        len(got) == len(want),
        f"{what}: {len(got)} records, expected {len(want)}",
    ):
        return
    for index, (a, b) in enumerate(zip(got, want)):
        ops.check(a == b, f"{what}: record {index} differs from serial run")


def check_partition(ops: Ops, partition, family: str) -> None:
    """The partition passes the repo's own structural validator."""
    validate = (
        validate_edge_partition if family == "edge"
        else validate_vertex_partition
    )
    try:
        validate(partition)
        ops.ok()
    except PartitionValidationError as exc:
        ops.fail(f"invalid {family} partition: {exc}")


def check_paper_orderings(ops: Ops, exported: Sequence[Dict[str, object]]) -> None:
    """The paper's qualitative orderings hold among one graph's records,
    at every k: RF(hep100) <= RF(hep10) <= RF(hdrf) < RF(random), and
    cut(kahip), cut(metis) < cut(random) for whichever of the two ran."""
    rf: Dict[int, Dict[str, float]] = {}
    cut: Dict[int, Dict[str, float]] = {}
    for entry in exported:
        data = entry["data"]
        table, field = (
            (rf, "replication_factor") if entry["kind"] == "distgnn"
            else (cut, "edge_cut")
        )
        table.setdefault(data["num_machines"], {})[
            data["partitioner"]
        ] = data[field]
    for k, by_name in sorted(rf.items()):
        ops.check(
            by_name["hep100"] <= by_name["hep10"] <= by_name["hdrf"]
            < by_name["random"],
            f"RF ordering violated at k={k}: {by_name}",
        )
    for k, by_name in sorted(cut.items()):
        for name in ("kahip", "metis"):
            if name in by_name:
                ops.check(
                    by_name[name] < by_name["random"],
                    f"cut({name}) >= cut(random) at k={k}",
                )
