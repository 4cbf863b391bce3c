"""The live sweep monitor behind ``repro obs watch``.

:class:`WatchState` folds bus events into a keyed, order-insensitive
model of the sweep: cells, alerts, and the finished records themselves,
decoded from each ``record-done`` event with
:func:`~repro.experiments.export.record_from_dict`. Every update is a
keyed overwrite, so replaying or reordering events reaches the same
state, and a parallel sweep's bus (which its coordinator writes in
task order) folds to the state of a serial sweep's.

Nothing here summarizes records on its own: the frame's findings and
phase mix run the post-hoc functions
(:func:`~repro.obs.analysis.anomaly.detect_record_anomalies`,
:meth:`~.rules.RuleSet.evaluate_records`,
:func:`~repro.obs.analysis.attribution.record_phase_totals`) over the
decoded records, and :meth:`WatchState.report` is
:func:`~repro.obs.analysis.report.build_analysis_report` over them — the
same bytes ``repro sweep --analysis-out`` writes for the same sweep.

Rendering is a pure function (:func:`render_frame`) from state to a
plain-ANSI string, and :func:`watch_loop` drives it tick by tick with
an injectable sleep/output, so the whole monitor is testable without a
terminal or a wall clock. The tick loop and the frame
primitives (:func:`frame_loop`, :func:`bar`, :func:`finding_lines`) are
shared with the daemon monitor in :mod:`.top`.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from ...experiments.export import record_from_dict
from ..analysis.anomaly import AnomalyThresholds, detect_record_anomalies
from ..analysis.attribution import record_phase_totals
from ..analysis.findings import AnalysisReport, Finding, sort_findings
from ..analysis.load import RunData
from ..analysis.report import build_analysis_report
from .bus import BusTailer
from .rules import RuleSet

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
        #: Finished cells: index -> {records_done, wall_seconds}, from
        #: the cell's ``cell-done`` event.
        self.cells: Dict[int, Dict[str, object]] = {}
        #: (cell, index) -> the finished record, decoded once.
        self.records: Dict[Tuple[int, int], object] = {}
        #: Alert findings delivered over the bus (coordinator rules).
        self.bus_findings: List[Finding] = []
        self._bus_finding_keys: set = set()
        #: Undecodable lines the tailer dropped (surfaced in the frame).
        self.skipped = 0

    # ---------------------------------------------------------- events
    def apply(self, event: Dict[str, object]) -> None:
        """Fold one bus event in (idempotent keyed overwrite)."""
        kind = event.get("kind")
        if kind == "sweep-start":
            self.total_cells = int(event.get("cells", 0))
        elif kind == "record-done":
            key = (int(event.get("cell", -1)), int(event.get("index", 0)))
            if key not in self.records:
                self.records[key] = record_from_dict(
                    json.loads(event["record"])
                )
        elif kind == "cell-done":
            self.cells[int(event.get("cell", -1))] = {
                "records_done": int(event.get("records", 0)),
                "wall_seconds": float(event.get("wall_seconds", 0.0)),
            }
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
    def cells_done(self) -> int:
        """Cells whose ``cell-done`` event has arrived."""
        return len(self.cells)

    def complete(self) -> bool:
        """True once every announced cell reported done."""
        return (
            self.total_cells is not None
            and self.total_cells > 0
            and self.cells_done() >= self.total_cells
        )

    def sweep_records(self) -> List:
        """The finished records in ``(cell, index)`` order."""
        return [self.records[key] for key in sorted(self.records)]

    def findings(self) -> List[Finding]:
        """Current findings: online anomalies over every finished
        record (same thresholds as the post-hoc analyzer), alert-rule
        firings evaluated locally when the watcher has rules, and any
        findings the coordinator pushed over the bus — deduplicated and
        in canonical severity order."""
        records = self.sweep_records()
        findings = detect_record_anomalies(records, self.thresholds)
        if self.rules is not None:
            findings.extend(self.rules.evaluate_records(records))
        merged: Dict[str, Finding] = {}
        for finding in findings + self.bus_findings:
            merged.setdefault(
                json.dumps(finding.to_dict(), sort_keys=True), finding
            )
        return sort_findings(list(merged.values()))

    def eta_seconds(self) -> Optional[float]:
        """Remaining-cells ETA from completed-cell wall times."""
        if self.total_cells is None:
            return None
        walls = [entry["wall_seconds"] for entry in self.cells.values()]
        if not walls:
            return None
        remaining = max(self.total_cells - self.cells_done(), 0)
        return remaining * (sum(walls) / len(walls))

    def report(self) -> AnalysisReport:
        """The analysis report of the records streamed so far: what
        ``repro sweep --analysis-out`` writes once the sweep is done
        (wall clock and alert firings stay out of it)."""
        return build_analysis_report(RunData(
            label="sweep", records=self.sweep_records(),
            skipped_lines=self.skipped,
        ))


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


def render_frame(state: WatchState, width: int = 78) -> str:
    """Render one monitor frame as plain text (pure function)."""
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

    mix = record_phase_totals(state.sweep_records())
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
    sleep: Callable[[float], None] = time.sleep,
    ansi: bool = True,
) -> WatchState:
    """Tick-driven monitor loop; returns the final state.

    Each tick polls the tailer, folds the new events, and writes one
    frame to ``out`` (prefixed with an ANSI clear when ``ansi``). Runs
    for ``ticks`` ticks, or until the sweep completes when ``ticks`` is
    ``None``; inject ``sleep``/``out`` to test without a terminal or
    wall clock.
    """
    state = state or WatchState()

    def poll() -> bool:
        state.apply_all(tailer.poll())
        state.skipped = tailer.skipped
        return state.complete()

    frame_loop(
        poll, lambda: render_frame(state), ticks, interval, out, sleep,
        ansi,
    )
    return state
