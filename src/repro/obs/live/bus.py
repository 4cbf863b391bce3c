"""The sweep telemetry bus: one coordinator-written JSONL stream plus a tailer.

A bus has one writer, the process that delivers the sweep's cells:
``repro sweep``'s coordinator (``events-coordinator.jsonl``) or, for a
served job, the ``repro serve`` scheduler (``events-server.jsonl``). It
appends one compact JSON object per line through
:class:`~repro.obs.sink.JsonlSink`, which is line-buffered, so every
event is on disk once written and a crashed writer loses at most its
final partial line. The tailer reads every stream in the directory
incrementally.

Determinism. The writer publishes a cell only once it is delivered, and
deliveries come in task order whatever the worker count (see
:func:`~repro.experiments.executor.execute_cells`), so the file order
is the deterministic order. Every cell-scoped event carries the cell's
*global index* (submission order of the sweep: graphs outermost, then
machine counts, then partitioners — the same order the serial runner
uses). Wall-clock fields (``t_wall``, ``wall_seconds``) ride along for
the live display and are excluded from all deterministic state.

Event kinds:

``sweep-start``
    Once: ``{"cells": N, ...}`` — the denominator for all progress
    displays.
``record-done``
    One per record of the cell: ``"record"`` is the record's export
    entry (:func:`~repro.experiments.export.record_to_dict`) as a
    compact JSON *string*. A string, because the sink writes objects
    with sorted keys, which would reorder ``phase_seconds`` and change
    float sums downstream; decoded, it equals the saved record.
``cell-done``
    Per cell: record count plus ``wall_seconds``, the ETA input (wall
    only, so excluded from deterministic summaries).
``finding``
    An alert-rule firing on the cell, as a serialized
    :class:`~repro.obs.analysis.findings.Finding`.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Dict, List, Sequence

from ...experiments.export import record_to_dict
from ..sink import JsonlSink

__all__ = [
    "BusWriter",
    "BusTailer",
]


class BusWriter:
    """Appends bus events to ``events-<writer_id>.jsonl`` in ``bus_dir``.

    A bus has one writer, the coordinator that delivers the cells.
    Close it with :meth:`close` or by using it as a context manager;
    ``close`` is idempotent and further events are dropped silently.
    """

    def __init__(self, bus_dir: str, writer_id: str) -> None:
        os.makedirs(bus_dir, exist_ok=True)
        self.writer_id = writer_id
        self.path = os.path.join(bus_dir, f"events-{writer_id}.jsonl")
        self._sink = JsonlSink(self.path)
        self.closed = False

    def emit(self, event: Dict[str, object]) -> None:
        """Append one raw event (adds the writer id, never raises)."""
        self._sink.emit({"worker": self.writer_id, **event})

    def sweep_start(self, cells: int, **meta: object) -> None:
        """Announce the sweep and its total cell count."""
        self.emit({
            "kind": "sweep-start", "cell": -1, "cells": int(cells),
            "t_wall": time.time(), **meta,
        })

    def publish(
        self,
        cell: int,
        records: Sequence,
        wall_seconds: float,
        findings: Sequence = (),
    ) -> None:
        """Publish one delivered cell: a ``record-done`` per record,
        ``cell-done`` and then a ``finding`` per rule firing, in that
        order."""
        for index, record in enumerate(records):
            self.emit({
                "kind": "record-done", "cell": int(cell), "index": index,
                "record": json.dumps(
                    record_to_dict(record), separators=(",", ":")
                ),
            })
        self.emit({
            "kind": "cell-done", "cell": int(cell),
            "records": len(records), "wall_seconds": float(wall_seconds),
        })
        for finding in findings:
            self.emit({
                "kind": "finding", "cell": int(cell),
                "finding": finding.to_dict(),
            })

    def close(self) -> None:
        """Flush and close the stream file (idempotent)."""
        self.closed = True
        self._sink.close()

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
        order then offset order (a bus's single writer appends in the
        deterministic order)."""
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
