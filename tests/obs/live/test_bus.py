"""The telemetry bus: the coordinator's writer and the tailer."""

import json
import os

import pytest

from repro.experiments import record_from_dict, records_to_json
from repro.obs.analysis import Finding
from repro.obs.live import BusTailer, BusWriter


@pytest.fixture
def record(make_record):
    """A finished DistGNN record with telemetry and per-machine memory."""
    return make_record(
        partitioner="hdrf", epoch_seconds=1.25, makespan_seconds=5.0,
        recovery_seconds=0.5, lost_messages=2, crashes=1,
        memory_per_machine=(1.5, 2.5),
        obs_metrics={
            "phase_seconds": {"forward-l0": 0.3, "allreduce": 0.1},
            "bytes_sent_total": 1e6,
            "lost_messages_total": 2,
        },
    )


def _record_events(bus, *records):
    with BusWriter(bus, "w0") as writer:
        writer.publish(0, records, 1.0)
    return [
        event for event in BusTailer(bus).poll()
        if event["kind"] == "record-done"
    ]


class TestRecordEventFields:
    """A record-done event carries the finished record itself."""

    def test_simulated_fields(self, tmp_path, record):
        (event,) = _record_events(str(tmp_path), record)
        decoded = record_from_dict(json.loads(event["record"]))
        assert decoded == record
        assert (decoded.graph, decoded.partitioner, decoded.num_machines) == (
            "OR", "hdrf", 4,
        )
        assert decoded.epoch_seconds == 1.25
        assert decoded.memory_per_machine == (1.5, 2.5)
        assert decoded.obs_metrics["bytes_sent_total"] == 1e6

    def test_payload_is_the_export_entry(self, tmp_path, record):
        (event,) = _record_events(str(tmp_path), record)
        assert json.loads(event["record"]) == json.loads(
            records_to_json([record])
        )[0]
        assert set(event) == {
            "kind", "cell", "seq", "index", "record", "worker",
        }

    def test_phase_seconds_as_ordered_pairs(self, tmp_path, record):
        # The sink writes sorted-key JSON, so the record travels as a
        # string: its (phase, seconds) pairs keep the record's order,
        # which fixes the float summation order downstream.
        (event,) = _record_events(str(tmp_path), record)
        decoded = record_from_dict(json.loads(event["record"]))
        assert list(decoded.obs_metrics["phase_seconds"].items()) == [
            ("forward-l0", 0.3), ("allreduce", 0.1),
        ]

    def test_distdgl_gets_degraded_steps(
        self, tmp_path, record, make_dgl_record
    ):
        dgl = make_dgl_record(degraded_steps=3, retries=2)
        events = _record_events(str(tmp_path), record, dgl)
        assert [e["index"] for e in events] == [0, 1]
        decoded = [
            record_from_dict(json.loads(e["record"])) for e in events
        ]
        assert decoded == [record, dgl]
        assert decoded[1].engine == "distdgl"
        assert decoded[1].degraded_steps == 3


class TestBusWriter:
    def test_publish_writes_one_cell_in_order(self, tmp_path, record):
        bus = str(tmp_path)
        finding = Finding(
            kind="alert:threshold", severity="critical", subject="s",
            message="m",
        )
        with BusWriter(bus, "w0") as writer:
            writer.publish(3, [record, record], 2.5, [finding])
        with open(os.path.join(bus, "events-w0.jsonl")) as fh:
            events = [json.loads(line) for line in fh]
        assert [e["kind"] for e in events] == [
            "record-done", "record-done", "cell-done", "finding",
        ]
        assert all(e["cell"] == 3 and e["worker"] == "w0" for e in events)
        done = events[2]
        assert [e["index"] for e in events[:2]] == [0, 1]
        assert (done["records"], done["wall_seconds"]) == (2, 2.5)
        assert Finding.from_dict(events[3]["finding"]) == finding


class TestBusTailer:
    def _write_lines(self, path, lines, terminate_last=True):
        with open(path, "a", encoding="utf-8") as fh:
            for i, line in enumerate(lines):
                fh.write(line)
                if terminate_last or i < len(lines) - 1:
                    fh.write("\n")

    def test_resumable_offsets(self, tmp_path):
        path = str(tmp_path / "events-w0.jsonl")
        tailer = BusTailer(str(tmp_path))
        self._write_lines(path, ['{"kind": "sweep-start", "n": 1}'])
        assert len(tailer.poll()) == 1
        assert tailer.poll() == []  # nothing new
        self._write_lines(path, ['{"kind": "sweep-start", "n": 2}'])
        again = tailer.poll()
        assert [e["n"] for e in again] == [2]

    def test_partial_tail_line_left_for_next_poll(self, tmp_path):
        path = str(tmp_path / "events-w0.jsonl")
        tailer = BusTailer(str(tmp_path))
        self._write_lines(path, ['{"kind": "sweep-start", "n": 1}'])
        # A line still being appended (no trailing newline yet).
        self._write_lines(
            path, ['{"kind": "sweep-start", '], terminate_last=False
        )
        events = tailer.poll()
        assert [e["n"] for e in events] == [1]
        assert tailer.skipped == 0
        # The writer finishes the line: now it parses.
        self._write_lines(path, ['"n": 2}'])
        assert [e["n"] for e in tailer.poll()] == [2]

    def test_corrupt_complete_line_counted_and_skipped(self, tmp_path):
        path = str(tmp_path / "events-w0.jsonl")
        self._write_lines(
            path, ['{"kind": "sweep-start"}', "{not json", '{"ok": 1}']
        )
        tailer = BusTailer(str(tmp_path))
        events = tailer.poll()
        assert len(events) == 2
        assert tailer.skipped == 1

    def test_new_stream_files_discovered_between_polls(self, tmp_path):
        tailer = BusTailer(str(tmp_path))
        assert tailer.poll() == []
        self._write_lines(
            str(tmp_path / "events-late.jsonl"), ['{"n": 1}']
        )
        assert [e["n"] for e in tailer.poll()] == [1]


class TestWriterLifecycle:
    def test_context_manager_closes_and_flushes(self, tmp_path):
        with BusWriter(str(tmp_path), "w0") as writer:
            writer.sweep_start(1)
            assert not writer.closed
        assert writer.closed
        events = BusTailer(str(tmp_path)).poll()
        assert [e["kind"] for e in events] == ["sweep-start"]

    def test_close_is_idempotent(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")
        writer.sweep_start(1)
        writer.close()
        writer.close()
        assert writer.closed

    def test_events_after_close_are_dropped_silently(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")
        writer.sweep_start(1)
        writer.close()
        writer.sweep_start(1)  # must not raise or corrupt the file
        events = BusTailer(str(tmp_path)).poll()
        assert len(events) == 1
