"""Structured event sinks: where trace-level events go.

At ``trace`` level every span, timeline mark and fault event is emitted
as one structured record. :class:`JsonlSink` appends them to a file as
JSON Lines (one compact object per line — the format every log pipeline
ingests); :class:`MemorySink` keeps them in a list for tests and
interactive inspection.

Events carry a monotonically increasing ``seq`` (assigned by the sink,
so a file is totally ordered even across sources) plus whatever fields
the emitter attached. Sinks never raise into the instrumented code path:
a closed sink silently drops.
"""

from __future__ import annotations

import json
from typing import Dict, List

__all__ = ["EventSink", "MemorySink", "JsonlSink"]


class EventSink:
    """Interface: sequence numbering plus an ``emit`` hook."""

    def __init__(self) -> None:
        self._seq = 0

    def emit(self, event: Dict[str, object]) -> None:
        """Stamp ``seq`` onto ``event`` and hand it to :meth:`write`."""
        event = dict(event)
        event["seq"] = self._seq
        self._seq += 1
        self.write(event)

    def write(self, event: Dict[str, object]) -> None:
        """Persist one stamped event (subclass hook)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further emits are dropped."""


class MemorySink(EventSink):
    """Keeps events in :attr:`events` (tests, notebooks)."""

    def __init__(self) -> None:
        super().__init__()
        self.events: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        """Append the event to the in-memory list."""
        self.events.append(event)


class JsonlSink(EventSink):
    """Appends one compact JSON object per line to ``path``.

    The file is opened lazily on the first event and written in UTF-8.
    The handle is *line-buffered*: each event reaches the OS as a single
    append of one complete newline-terminated line, so a reader tailing
    the file (the telemetry bus's) never sees a half-flushed event, and
    processes appending to one file (POSIX ``O_APPEND`` semantics) never
    interleave partial lines. :meth:`close` flushes and further events
    are dropped (never raised).
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._handle = None
        self._closed = False

    def write(self, event: Dict[str, object]) -> None:
        """Serialize and append the event; drops silently once closed."""
        if self._closed:
            return
        if self._handle is None:
            self._handle = open(
                self.path, "a", buffering=1, encoding="utf-8"
            )
        self._handle.write(
            json.dumps(event, separators=(",", ":"), sort_keys=True) + "\n"
        )

    def close(self) -> None:
        """Flush and close the file; subsequent events are dropped."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True


def read_jsonl(path: str, return_skipped: bool = False):
    """Load a JSONL event file back into a list of dicts.

    A process crashing mid-write leaves a truncated final line (and a
    killed writer can leave one mid-file); such undecodable lines are
    *skipped* rather than raised on, so one partial record never loses
    the whole trace. With ``return_skipped=True`` the result is
    ``(events, skipped_count)`` so callers can surface how many lines
    were dropped.
    """
    events: List[Dict[str, object]] = []
    skipped = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                skipped += 1
    if return_skipped:
        return events, skipped
    return events


__all__.append("read_jsonl")
