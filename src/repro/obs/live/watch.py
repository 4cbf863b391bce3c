"""The live sweep monitor behind ``repro obs watch``.

:class:`WatchState` folds bus events into a keyed, order-insensitive
model of the sweep (cells, records, alerts); because every update is a
keyed overwrite and the anomaly findings are recomputed from the full
record set on demand, the state reached from a parallel sweep's
interleaved streams is *identical* to the state from a serial sweep —
:meth:`WatchState.to_deterministic_json` is byte-stable across worker
counts (tested).

Rendering is a pure function (:func:`render_frame`) from state + clock
to a plain-ANSI string, and :func:`watch_loop` drives it tick by tick
with an injectable clock/sleep/output, so the whole monitor is testable
without a terminal or a wall clock. The tick loop and the frame
primitives (:func:`frame_loop`, :func:`bar`, :func:`finding_lines`) are
shared with the daemon monitor in :mod:`.top`. The streaming anomaly findings use
the *same* :class:`~repro.obs.analysis.anomaly.AnomalyThresholds` the
post-hoc analyzer uses, so what you see live is what ``repro obs
analyze`` reports afterwards.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from ..analysis.anomaly import AnomalyThresholds, detect_record_anomalies
from ..analysis.findings import Finding, sort_findings
from .bus import WALL_ONLY_KINDS, BusTailer
from .rules import RuleSet, record_totals

__all__ = [
    "WatchState",
    "render_frame",
    "watch_loop",
    "frame_loop",
    "bar",
    "finding_lines",
]

#: ANSI: clear screen + home. The only escape codes the monitors use.
_CLEAR = "\x1b[2J\x1b[H"


class _ParamsShim:
    """Duck-types ``TrainingParams.label()`` for replayed events."""

    def __init__(self, label: str) -> None:
        self._label = label

    def label(self) -> str:
        return self._label


class _RecordShim:
    """A sweep record reconstructed from one ``record-done`` event.

    Carries exactly the attributes the anomaly detector and the alert
    rules read, ``engine`` included (as on the record dataclasses).
    """

    def __init__(self, event: Dict[str, object]) -> None:
        self.engine = str(event.get("engine") or "distgnn")
        self.graph = str(event.get("graph", ""))
        self.partitioner = str(event.get("partitioner", ""))
        self.num_machines = int(event.get("k", 0))
        self.params = _ParamsShim(str(event.get("params_label", "")))
        self.epoch_seconds = float(event.get("epoch_seconds", 0.0))
        self.makespan_seconds = float(
            event.get("makespan_seconds", 0.0)
        )
        self.recovery_seconds = float(
            event.get("recovery_seconds", 0.0)
        )
        self.network_bytes = float(event.get("network_bytes", 0.0))
        self.lost_messages = int(event.get("lost_messages", 0))
        self.crashes = int(event.get("crashes", 0))
        if self.engine == "distdgl":
            self.degraded_steps = int(event.get("degraded_steps", 0))
        metrics = {}
        for key in (
            "bytes_sent_total",
            "lost_messages_total",
            "memory_peak_bytes_max",
        ):
            if key in event:
                metrics[key] = event[key]
        if "phase_seconds" in event:
            # The bus ships phases as ordered [name, seconds] pairs
            # (see bus.record_event_fields); rebuild the dict in the
            # original insertion order so float summations downstream
            # are bit-identical to the source record's.
            metrics["phase_seconds"] = {
                str(name): float(seconds)
                for name, seconds in event["phase_seconds"]
            }
        self.obs_metrics = metrics or None


class WatchState:
    """Keyed fold of bus events into the current sweep picture."""

    def __init__(
        self,
        thresholds: AnomalyThresholds = AnomalyThresholds(),
        rules: Optional[RuleSet] = None,
    ) -> None:
        self.thresholds = thresholds
        self.rules = rules
        self.total_cells: Optional[int] = None
        #: cell index -> {engine, graph, partitioner, k, records_total,
        #: records_done, status, worker, wall_seconds}
        self.cells: Dict[int, Dict[str, object]] = {}
        #: (cell, index) -> record-done event
        self.records: Dict[Tuple[int, int], Dict[str, object]] = {}
        #: Alert findings delivered over the bus (coordinator rules).
        self.bus_findings: List[Finding] = []
        self._bus_finding_keys: set = set()
        #: worker id -> last wall-clock timestamp seen (liveness only).
        self.workers: Dict[str, float] = {}
        #: Undecodable lines the tailer dropped (surfaced in the frame).
        self.skipped = 0

    # ---------------------------------------------------------- events
    def apply(self, event: Dict[str, object]) -> None:
        """Fold one bus event in (idempotent keyed overwrite)."""
        kind = event.get("kind")
        worker = event.get("worker")
        t_wall = event.get("t_wall")
        if worker is not None and t_wall is not None:
            previous = self.workers.get(str(worker), 0.0)
            self.workers[str(worker)] = max(previous, float(t_wall))
        if kind in WALL_ONLY_KINDS:
            return
        if kind == "sweep-start":
            self.total_cells = int(event.get("cells", 0))
        elif kind == "cell-start":
            cell = int(event.get("cell", -1))
            entry = self.cells.setdefault(cell, {})
            entry.update({
                "engine": event.get("engine"),
                "graph": event.get("graph"),
                "partitioner": event.get("partitioner"),
                "k": int(event.get("k", 0)),
                "records_total": int(event.get("records_total", 0)),
                "worker": worker,
            })
            entry.setdefault("status", "running")
        elif kind == "record-done":
            cell = int(event.get("cell", -1))
            index = int(event.get("index", 0))
            self.records[(cell, index)] = event
        elif kind == "cell-done":
            cell = int(event.get("cell", -1))
            entry = self.cells.setdefault(cell, {})
            entry["status"] = "done"
            entry["records_done"] = int(event.get("records", 0))
            entry["wall_seconds"] = float(
                event.get("wall_seconds", 0.0)
            )
        elif kind == "finding":
            key = json.dumps(event.get("finding"), sort_keys=True)
            if key not in self._bus_finding_keys:
                self._bus_finding_keys.add(key)
                self.bus_findings.append(
                    Finding.from_dict(event["finding"])
                )

    def apply_all(self, events) -> None:
        """Fold a batch of events (one tailer poll)."""
        for event in events:
            self.apply(event)

    # ----------------------------------------------------- derived view
    def records_done(self, cell: int) -> int:
        """Finished records of one cell (event count beats cell-done)."""
        counted = sum(1 for c, _ in self.records if c == cell)
        reported = int(self.cells.get(cell, {}).get("records_done", 0))
        return max(counted, reported)

    def cells_done(self) -> int:
        """Cells whose ``cell-done`` event has arrived."""
        return sum(
            1 for entry in self.cells.values()
            if entry.get("status") == "done"
        )

    def complete(self) -> bool:
        """True once every announced cell reported done."""
        return (
            self.total_cells is not None
            and self.total_cells > 0
            and self.cells_done() >= self.total_cells
        )

    def shims(self) -> List[_RecordShim]:
        """Record shims in deterministic ``(cell, index)`` order."""
        return [
            _RecordShim(self.records[key])
            for key in sorted(self.records)
        ]

    def findings(self) -> List[Finding]:
        """Current findings: online anomalies over every finished
        record (same thresholds as the post-hoc analyzer), alert-rule
        firings evaluated locally when the watcher has rules, and any
        findings the coordinator pushed over the bus — deduplicated and
        in canonical severity order."""
        shims = self.shims()
        findings = detect_record_anomalies(shims, self.thresholds)
        if self.rules is not None:
            findings.extend(self.rules.evaluate_records(shims))
        merged: Dict[str, Finding] = {}
        for finding in findings + self.bus_findings:
            merged.setdefault(
                json.dumps(finding.to_dict(), sort_keys=True), finding
            )
        return sort_findings(list(merged.values()))

    def phase_mix(self) -> Dict[str, float]:
        """Aggregate simulated phase seconds over finished records."""
        mix: Dict[str, float] = {}
        for key in sorted(self.records):
            for phase, seconds in (
                self.records[key].get("phase_seconds") or ()
            ):
                mix[phase] = mix.get(phase, 0.0) + float(seconds)
        return mix

    def eta_seconds(self) -> Optional[float]:
        """Remaining-cells ETA from completed-cell wall times."""
        if self.total_cells is None:
            return None
        walls = [
            float(entry["wall_seconds"])
            for entry in self.cells.values()
            if entry.get("status") == "done"
            and "wall_seconds" in entry
        ]
        if not walls:
            return None
        remaining = max(self.total_cells - self.cells_done(), 0)
        return remaining * (sum(walls) / len(walls))

    # ----------------------------------------------------- determinism
    def deterministic_summary(self) -> Dict[str, object]:
        """The simulated-only view of the sweep: everything wall-clock
        or worker-identity is excluded, so a serial and a parallel run
        of the same sweep summarize byte-identically."""
        cells = {}
        for cell in sorted(self.cells):
            entry = self.cells[cell]
            cells[str(cell)] = {
                "engine": entry.get("engine"),
                "graph": entry.get("graph"),
                "partitioner": entry.get("partitioner"),
                "k": entry.get("k"),
                "records_total": entry.get("records_total", 0),
                "records_done": self.records_done(cell),
                "status": entry.get("status"),
            }
        return {
            "schema": 1,
            "total_cells": self.total_cells,
            "cells": cells,
            "records_done": len(self.records),
            "epoch_seconds": {
                f"{c}/{i}": float(
                    event.get("epoch_seconds", 0.0)
                )
                for (c, i), event in sorted(self.records.items())
            },
            "phase_mix": {
                phase: float(seconds)
                for phase, seconds in sorted(
                    self.phase_mix().items()
                )
            },
            "findings": [f.to_dict() for f in self.findings()],
        }

    def to_deterministic_json(self) -> str:
        """Canonical JSON of :meth:`deterministic_summary`."""
        return json.dumps(
            self.deterministic_summary(), indent=2, sort_keys=True
        ) + "\n"


def bar(fraction: float, width: int) -> str:
    """A ``width``-character ``###---`` gauge of ``fraction``."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


def finding_lines(findings: List[Finding], width: int) -> List[str]:
    """The first five findings, one ``[severity] message`` line each,
    messages truncated to the frame width."""
    lines = []
    for finding in findings[:5]:
        message = finding.message
        budget = max(width - 6, 20)
        if len(message) > budget:
            message = message[: budget - 3] + "..."
        lines.append(f"  [{finding.severity}] {message}")
    return lines


def render_frame(
    state: WatchState,
    now: Optional[float] = None,
    width: int = 78,
) -> str:
    """Render one monitor frame as plain text (pure function).

    ``now`` is a wall-clock timestamp (``time.time`` scale) used only
    for heartbeat ages; omit it for a clockless frame.
    """
    lines: List[str] = []
    total = state.total_cells
    done = state.cells_done()
    header = f"sweep: {done}/{total if total is not None else '?'} cells"
    header += f", {len(state.records)} records"
    eta = state.eta_seconds()
    if eta is not None and not state.complete():
        header += f", eta ~{eta:.0f}s"
    if state.complete():
        header += " [complete]"
    if state.skipped:
        header += f" ({state.skipped} corrupt lines skipped)"
    lines.append(header)
    if total:
        lines.append("[" + bar(done / total, min(width - 2, 60)) + "]")

    # Per-worker liveness + current cell.
    running = {
        entry.get("worker"): (cell, entry)
        for cell, entry in sorted(state.cells.items())
        if entry.get("status") == "running"
    }
    for worker in sorted(state.workers):
        age = ""
        if now is not None:
            age = f" (seen {max(now - state.workers[worker], 0.0):.0f}s ago)"
        cell_entry = running.get(worker)
        if cell_entry is not None:
            cell, entry = cell_entry
            progress = state.records_done(cell)
            label = (
                f"cell {cell}: {entry.get('engine')}"
                f"/{entry.get('graph')}/{entry.get('partitioner')}"
                f"/k={entry.get('k')}"
                f" [{progress}/{entry.get('records_total', '?')}]"
            )
        else:
            label = "idle"
        lines.append(f"  {worker}: {label}{age}")

    mix = state.phase_mix()
    total_seconds = sum(mix.values())
    if total_seconds > 0:
        top = sorted(
            mix.items(), key=lambda kv: (-kv[1], kv[0])
        )[:5]
        parts = ", ".join(
            f"{phase} {seconds / total_seconds:.0%}"
            for phase, seconds in top
        )
        lines.append(f"phase mix: {parts}")

    findings = state.findings()
    if findings:
        by_severity: Dict[str, int] = {}
        for finding in findings:
            by_severity[finding.severity] = (
                by_severity.get(finding.severity, 0) + 1
            )
        counts = ", ".join(
            f"{count} {severity}"
            for severity, count in sorted(by_severity.items())
        )
        lines.append(f"findings: {counts}")
        lines.extend(finding_lines(findings, width))
    else:
        lines.append("findings: none")
    return "\n".join(lines) + "\n"


def frame_loop(
    poll: Callable[[], bool],
    render: Callable[[], str],
    ticks: Optional[int],
    interval: float,
    out: Optional[TextIO],
    sleep: Callable[[float], None],
    ansi: bool,
) -> None:
    """The tick loop of both monitors.

    Each tick calls ``poll()`` (refresh the model; its result says
    whether the monitored thing is finished) and, with an ``out``,
    writes one ``render()`` frame (prefixed with an ANSI clear when
    ``ansi``). Runs for exactly ``ticks`` ticks, or with ``ticks=None``
    until ``poll`` reports finished, sleeping ``interval`` in between.
    """
    tick = 0
    while True:
        finished = poll()
        if out is not None:
            out.write((_CLEAR if ansi else "") + render())
            out.flush()
        tick += 1
        if (tick >= ticks) if ticks is not None else finished:
            break
        sleep(interval)


def watch_loop(
    tailer: BusTailer,
    state: Optional[WatchState] = None,
    ticks: Optional[int] = None,
    interval: float = 1.0,
    out: Optional[TextIO] = None,
    clock: Callable[[], float] = time.time,
    sleep: Callable[[float], None] = time.sleep,
    ansi: bool = True,
    stop_when_complete: bool = True,
) -> WatchState:
    """Tick-driven monitor loop; returns the final state.

    Each tick polls the tailer, folds the new events, and writes one
    frame to ``out`` (prefixed with an ANSI clear when ``ansi``). Runs
    for ``ticks`` ticks, or until the sweep completes when ``ticks`` is
    ``None``; inject ``clock``/``sleep``/``out`` to test without a
    terminal or wall clock.
    """
    state = state or WatchState()

    def poll() -> bool:
        state.apply_all(tailer.poll())
        state.skipped = tailer.skipped
        return stop_when_complete and state.complete()

    frame_loop(
        poll, lambda: render_frame(state, now=clock()),
        ticks, interval, out, sleep, ansi,
    )
    return state
