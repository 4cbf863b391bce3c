"""The sweep telemetry bus: per-worker JSONL streams plus a tailer.

Writers (sweep workers and the coordinator) append events to their own
file in a shared bus directory — ``events-<writer>.jsonl``, one compact
JSON object per line via :class:`~repro.obs.sink.JsonlSink`, so no file
is ever written by two processes and a crashed worker loses at most its
final partial line. The tailer merges all streams incrementally.

Determinism. Every cell-scoped event carries the cell's *global index*
(submission order of the sweep: graphs outermost, then machine counts,
then partitioners — the same order the serial runner uses) and a
per-cell sequence number ``cseq``. One worker owns a whole cell, so
``(cell, cseq)`` is unique and totally orders the merged stream the
same way regardless of worker count or interleaving. Wall-clock fields
(``t_wall``, ``wall_seconds``) and worker identities ride along for the
live display but are excluded from all deterministic state; events that
are *only* wall-clock (heartbeats) are excluded from the deterministic
merge entirely.

Event kinds:

``sweep-start``
    Coordinator, once: ``{"cells": N, ...}`` — the denominator for all
    progress displays.
``cell-start``
    Worker, per cell: engine/graph/partitioner/k plus
    ``records_total`` (the parameter-grid length).
``record-done``
    Worker, one per finished record: ``"record"`` is the record's export
    entry (:func:`~repro.experiments.export.record_to_dict`) as a
    compact JSON *string*. A string, because the sink writes objects
    with sorted keys, which would reorder ``phase_seconds`` and change
    float sums downstream; decoded, it equals the saved record.
``cell-done``
    Worker, per cell: record count plus the cell's wall time (the ETA
    input; wall-only, so excluded from deterministic summaries).
``heartbeat``
    Worker liveness; pure wall clock, never merged deterministically.
``finding``
    Coordinator: an alert-rule firing, as a serialized
    :class:`~repro.obs.analysis.findings.Finding`.

Sequence bound. Findings sort after every record of their cell by
riding at ``cseq >= FINDING_CSEQ_BASE`` (100000), which caps a cell at
``FINDING_CSEQ_BASE - 2`` records (cell-start and cell-done each take
one slot). The writer *validates* this bound — ``cell_start`` rejects
a ``records_total`` that could not fit, and every cseq allocation
raises before crossing into the finding range — so an oversized
parameter grid fails loudly instead of silently corrupting the
deterministic merge order.

Lifecycle. Writers are context managers, and every writer registers an
:mod:`atexit` close so worker-process streams are flushed even when the
pool tears the process down without unwinding; ``close`` is idempotent
and drops the hook.
"""

from __future__ import annotations

import atexit
import glob
import json
import os
import time
from typing import Dict, Iterator, List, Optional

from ...experiments.export import record_to_dict
from ..sink import JsonlSink

__all__ = [
    "EVENT_KINDS",
    "WALL_ONLY_KINDS",
    "MAX_CELL_RECORDS",
    "BusWriter",
    "BusTailer",
]

#: Every event kind the bus knows about.
EVENT_KINDS = (
    "sweep-start",
    "cell-start",
    "record-done",
    "cell-done",
    "heartbeat",
    "finding",
)

#: Kinds that exist only for liveness display: they carry no simulated
#: state and are excluded from the deterministic merge.
WALL_ONLY_KINDS = frozenset({"heartbeat"})

#: ``cseq`` offset for coordinator findings, so they sort after every
#: record of their cell no matter how large the parameter grid is.
#: Caps a cell at ``FINDING_CSEQ_BASE - 2`` records (one slot each for
#: cell-start and cell-done); the writer enforces the bound at
#: ``cell_start``/``record_done`` time rather than letting a colliding
#: cseq corrupt the deterministic merge.
FINDING_CSEQ_BASE = 100000

#: Largest parameter grid one cell can carry: cell-start + records +
#: cell-done must all stay below :data:`FINDING_CSEQ_BASE`.
MAX_CELL_RECORDS = FINDING_CSEQ_BASE - 2


class BusWriter:
    """Appends bus events to this process's stream file.

    ``writer_id`` defaults to ``pid<os.getpid()>`` so concurrent worker
    processes never share a file. The writer assigns ``cseq`` per cell;
    a cell must be driven by a single writer (the sweep runners
    guarantee this: a cell is one executor task).

    Writers close deterministically: use them as a context manager, or
    rely on the :mod:`atexit` hook every writer registers at
    construction (worker pools tear processes down without unwinding
    the stack, so flushing must not depend on ``__del__`` luck).
    ``close`` is idempotent and further events are dropped silently.
    """

    def __init__(self, bus_dir: str, writer_id: Optional[str] = None) -> None:
        os.makedirs(bus_dir, exist_ok=True)
        self.bus_dir = bus_dir
        self.writer_id = writer_id or f"pid{os.getpid()}"
        self.path = os.path.join(
            bus_dir, f"events-{self.writer_id}.jsonl"
        )
        self._sink = JsonlSink(self.path)
        self._cseq: Dict[int, int] = {}
        self.closed = False
        atexit.register(self.close)

    def _next_cseq(self, cell: int) -> int:
        cseq = self._cseq.get(cell, 0)
        if cseq >= FINDING_CSEQ_BASE:
            raise ValueError(
                f"cell {cell} overflowed its event-sequence budget: "
                f"cseq {cseq} would collide with the finding range "
                f"(>= {FINDING_CSEQ_BASE}); cells are capped at "
                f"{MAX_CELL_RECORDS} records"
            )
        self._cseq[cell] = cseq + 1
        return cseq

    def emit(self, event: Dict[str, object]) -> None:
        """Append one raw event (adds the writer id, never raises)."""
        event = dict(event)
        event.setdefault("worker", self.writer_id)
        self._sink.emit(event)

    # -------------------------------------------------------- builders
    def sweep_start(self, cells: int, **meta: object) -> None:
        """Coordinator: announce the sweep and its total cell count."""
        self.emit({
            "kind": "sweep-start", "cell": -1, "cseq": 0,
            "cells": int(cells), "t_wall": time.time(), **meta,
        })

    def cell_start(
        self,
        cell: int,
        engine: str,
        graph: str,
        partitioner: str,
        k: int,
        records_total: int,
    ) -> None:
        """Worker: a cell's parameter grid is starting.

        Rejects a ``records_total`` the cell's cseq budget cannot hold
        (see :data:`MAX_CELL_RECORDS`): failing here, before any event
        is written, beats corrupting the merge order 100000 records in.
        """
        if int(records_total) > MAX_CELL_RECORDS:
            raise ValueError(
                f"cell {cell} declares {records_total} records, above "
                f"the per-cell cap of {MAX_CELL_RECORDS} (record cseqs "
                f"must stay below FINDING_CSEQ_BASE="
                f"{FINDING_CSEQ_BASE} so findings sort after records)"
            )
        self.emit({
            "kind": "cell-start", "cell": int(cell),
            "cseq": self._next_cseq(cell),
            "engine": engine, "graph": graph,
            "partitioner": partitioner, "k": int(k),
            "records_total": int(records_total),
            "t_wall": time.time(),
        })

    def record_done(self, cell: int, index: int, record) -> None:
        """Worker: one record of the cell finished."""
        self.emit({
            "kind": "record-done", "cell": int(cell),
            "cseq": self._next_cseq(cell), "index": int(index),
            "record": json.dumps(
                record_to_dict(record), separators=(",", ":")
            ),
        })

    def cell_done(self, cell: int, records: int, wall_seconds: float) -> None:
        """Worker: the whole cell finished (``wall_seconds`` is real
        elapsed time — the ETA input, excluded from determinism)."""
        self.emit({
            "kind": "cell-done", "cell": int(cell),
            "cseq": self._next_cseq(cell),
            "records": int(records),
            "wall_seconds": float(wall_seconds),
        })

    def heartbeat(self, **extra: object) -> None:
        """Worker liveness ping (wall-only, never merged)."""
        self.emit({
            "kind": "heartbeat", "t_wall": time.time(), **extra,
        })

    def finding(self, cell: int, index: int, finding) -> None:
        """Coordinator: an alert-rule firing for ``cell``."""
        if int(index) < 0:
            raise ValueError(
                f"finding index must be >= 0, got {index}"
            )
        self.emit({
            "kind": "finding", "cell": int(cell),
            "cseq": FINDING_CSEQ_BASE + int(index),
            "finding": finding.to_dict(),
        })

    def close(self) -> None:
        """Flush and close the stream file (idempotent)."""
        self.closed = True
        self._sink.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "BusWriter":
        """Context-manager entry: the writer itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close (and flush) the stream."""
        self.close()


class BusTailer:
    """Incremental, resumable reader over every stream in a bus dir.

    Keeps a byte offset per file and only ever consumes
    newline-*terminated* lines, so a line mid-append is left for the
    next poll rather than mis-parsed; an undecodable complete line
    (truncated by a killed writer) is counted in :attr:`skipped` and
    dropped, mirroring :func:`~repro.obs.sink.read_jsonl`. New stream
    files are discovered on every poll.
    """

    def __init__(self, bus_dir: str) -> None:
        self.bus_dir = bus_dir
        self._offsets: Dict[str, int] = {}
        #: Complete-but-undecodable lines dropped so far.
        self.skipped = 0

    def _paths(self) -> List[str]:
        return sorted(
            glob.glob(os.path.join(self.bus_dir, "*.jsonl"))
        )

    def poll(self) -> List[Dict[str, object]]:
        """Return all events appended since the last poll, in file
        order then offset order (callers wanting the deterministic
        order sort accumulated events on ``(cell, cseq)``)."""
        events: List[Dict[str, object]] = []
        for path in self._paths():
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            if not chunk:
                continue
            end = chunk.rfind(b"\n")
            if end < 0:  # no complete line yet
                continue
            complete = chunk[: end + 1]
            self._offsets[path] = offset + len(complete)
            for line in complete.split(b"\n"):
                if not line.strip():
                    continue
                try:
                    events.append(json.loads(line.decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self.skipped += 1
        return events

    def drain(self) -> Iterator[Dict[str, object]]:
        """One full poll as an iterator (convenience for finished
        buses)."""
        return iter(self.poll())
