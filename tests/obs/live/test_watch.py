"""The watch monitor: state folding, rendering, the tick loop."""

import io
import json

from repro.experiments import record_to_dict
from repro.obs.analysis import RunData, build_analysis_report
from repro.obs.analysis.attribution import record_phase_totals
from repro.obs.live import BusTailer, BusWriter, RuleSet, WatchState
from repro.obs.live import render_frame, watch_loop
from repro.obs.live.rules import AlertRule

from ..conftest import gnn_record


def sweep_start(cells):
    return {"kind": "sweep-start", "cell": -1,
            "cells": cells, "t_wall": 10.0, "worker": "coordinator"}


def finished_record(cell, epoch=1.5):
    return gnn_record(
        partitioner=("hdrf", "random")[cell], epoch_seconds=epoch,
        makespan_seconds=4 * epoch, network_bytes=1e5,
        obs_metrics={"phase_seconds": {"forward": 1.0, "sync": 0.5}},
    )


def record_done(cell, index, epoch=1.5):
    """A record-done event as a bus writer emits it."""
    record = record_to_dict(finished_record(cell, epoch))
    return {
        "kind": "record-done", "cell": cell,
        "index": index, "worker": "coordinator",
        "record": json.dumps(record, separators=(",", ":")),
    }


def cell_done(cell, records=2, wall=3.0):
    return {"kind": "cell-done", "cell": cell,
            "records": records, "wall_seconds": wall,
            "worker": "coordinator"}


def full_sweep_events():
    # Distinct epoch times per record, so rule firings (which embed the
    # observed value) stay distinct under the findings dedup.
    return [
        sweep_start(2),
        record_done(0, 0, epoch=1.5),
        record_done(0, 1, epoch=1.6), cell_done(0),
        record_done(1, 0, epoch=1.7), record_done(1, 1, epoch=1.8),
        cell_done(1),
    ]


class TestWatchState:
    def test_fold_counts(self):
        state = WatchState()
        state.apply_all(full_sweep_events())
        assert state.total_cells == 2
        assert state.cells_done() == 2
        assert len(state.records) == 4
        assert state.cells[0]["records_done"] == 2
        assert state.complete()

    def test_order_insensitive_and_idempotent(self):
        events = full_sweep_events()
        forward = WatchState()
        forward.apply_all(events)
        shuffled = WatchState()
        shuffled.apply_all(reversed(events))
        shuffled.apply_all(events)  # replays must be harmless
        assert forward.cells == shuffled.cells
        assert forward.records == shuffled.records
        assert forward.report().to_json() == shuffled.report().to_json()

    def test_incomplete_without_sweep_start(self):
        state = WatchState()
        state.apply_all(full_sweep_events()[1:])
        assert not state.complete()

    def test_eta_from_completed_cell_walls(self):
        state = WatchState()
        state.apply_all([
            sweep_start(4),
            cell_done(0, wall=2.0),
            cell_done(1, wall=4.0),
        ])
        # Two cells left at a mean of 3s each.
        assert state.eta_seconds() == 6.0

    def test_phase_mix_sums_ordered_pairs(self):
        # The frame's phase mix is record_phase_totals over the decoded
        # records: each record's (phase, seconds) pairs, in its order.
        state = WatchState()
        state.apply_all(full_sweep_events())
        mix = record_phase_totals(state.sweep_records())
        assert list(mix.items()) == [("forward", 4.0), ("sync", 2.0)]
        assert "phase mix: forward 67%, sync 33%" in render_frame(state)

    def test_bus_findings_deduplicated(self):
        finding = {
            "kind": "alert:threshold", "severity": "critical",
            "subject": "s", "message": "m",
        }
        state = WatchState()
        state.apply({"kind": "finding", "cell": 0, "finding": finding})
        state.apply({"kind": "finding", "cell": 0,
                     "finding": dict(finding)})
        assert len(state.bus_findings) == 1

    def test_local_rules_fire_in_findings(self):
        ruleset = RuleSet((
            AlertRule(
                name="epoch-cap", kind="threshold",
                metric="distgnn.epoch_seconds", op=">", value=1.0,
                severity="critical",
            ),
        ))
        state = WatchState(rules=ruleset)
        state.apply_all(full_sweep_events())
        fired = [
            f for f in state.findings() if f.kind == "alert:threshold"
        ]
        assert len(fired) == 4  # every record breaches the 1.0s cap
        assert all(f.severity == "critical" for f in fired)

    def test_deterministic_summary_has_no_wall_fields(self):
        state = WatchState()
        state.apply_all(full_sweep_events())
        # Other workers, other clocks: the same summary bytes.
        moved = WatchState()
        for event in full_sweep_events():
            moved.apply({
                **event, "worker": "elsewhere",
                **({"t_wall": 1e9} if "t_wall" in event else {}),
                **({"wall_seconds": 99.0} if "wall_seconds" in event
                   else {}),
            })
        text = state.report().to_json()
        assert moved.report().to_json() == text
        assert "wall" not in text
        assert "worker" not in text
        assert json.loads(text)["source"]["num_records"] == 4

    def test_report_is_the_analysis_report_of_the_records(self):
        state = WatchState()
        state.apply_all(reversed(full_sweep_events()))
        records = [
            finished_record(cell, epoch)
            for cell, epoch in ((0, 1.5), (0, 1.6), (1, 1.7), (1, 1.8))
        ]
        assert state.sweep_records() == records
        expected = build_analysis_report(
            RunData(label="sweep", records=records)
        )
        assert state.report().to_json() == expected.to_json()

    def test_skipped_lines_reach_the_report(self):
        state = WatchState()
        state.apply_all(full_sweep_events())
        state.skipped = 2
        report = json.loads(state.report().to_json())
        assert report["source"]["skipped_lines"] == 2
        assert "trace-truncated" in {f["kind"] for f in report["findings"]}


class TestRenderFrame:
    def test_frame_sections(self):
        state = WatchState()
        state.apply_all(full_sweep_events())
        frame = render_frame(state)
        assert "sweep: 2/2 cells, 4 records [complete]" in frame
        assert "[#" in frame  # progress bar full
        assert "phase mix: forward 67%, sync 33%" in frame
        assert "findings: none" in frame
        assert "\x1b" not in frame  # rendering itself is ANSI-free

    def test_skipped_lines_surface_in_header(self):
        state = WatchState()
        state.apply(sweep_start(1))
        state.skipped = 3
        assert "(3 corrupt lines skipped)" in render_frame(state)


class TestWatchLoop:
    def _bus(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")
        for event in full_sweep_events():
            writer.emit(event)
        writer.close()
        return BusTailer(str(tmp_path))

    def test_fixed_ticks_with_injected_clock(self, tmp_path):
        out = io.StringIO()
        slept = []
        state = watch_loop(
            self._bus(tmp_path), ticks=2, interval=0.5, out=out,
            sleep=slept.append, ansi=False,
        )
        assert state.complete()
        assert slept == [0.5]  # no sleep after the final tick
        frames = out.getvalue()
        assert frames.count("sweep: 2/2 cells") == 2
        assert "\x1b" not in frames

    def test_ansi_clear_prefixes_frames(self, tmp_path):
        out = io.StringIO()
        watch_loop(
            self._bus(tmp_path), ticks=1, out=out, sleep=lambda _s: None,
        )
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_stops_when_complete(self, tmp_path):
        ticks = []
        state = watch_loop(
            self._bus(tmp_path), ticks=None, out=None,
            sleep=lambda s: ticks.append(s),
        )
        assert state.complete()
        assert ticks == []  # complete on the very first poll
