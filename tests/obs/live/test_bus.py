"""The telemetry bus: writers, tailing, merge determinism."""

import json
import os
from operator import itemgetter

import pytest

from repro.experiments import record_from_dict, records_to_json
from repro.obs.live import BusTailer, BusWriter
from repro.obs.live.bus import FINDING_CSEQ_BASE, MAX_CELL_RECORDS

#: The bus's deterministic total order on cell-scoped events.
merge_order = itemgetter("cell", "cseq")


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
        for index, record in enumerate(records):
            writer.record_done(0, index, record)
    return BusTailer(bus).poll()


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
            "kind", "cell", "cseq", "seq", "index", "record", "worker",
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
    def test_per_writer_file_and_cseq(self, tmp_path, record):
        bus = str(tmp_path)
        writer = BusWriter(bus, "w0")
        writer.cell_start(0, "distgnn", "OR", "hdrf", 4, 2)
        writer.record_done(0, 0, record)
        writer.record_done(0, 1, record)
        writer.cell_start(1, "distgnn", "OR", "random", 4, 2)
        writer.close()
        with open(os.path.join(bus, "events-w0.jsonl")) as fh:
            events = [json.loads(line) for line in fh]
        assert [e["cseq"] for e in events if e["cell"] == 0] == [0, 1, 2]
        assert [e["cseq"] for e in events if e["cell"] == 1] == [0]
        assert all(e["worker"] == "w0" for e in events)

    def test_finding_cseq_sorts_after_records(self):
        finding_event = {
            "kind": "finding", "cell": 3,
            "cseq": FINDING_CSEQ_BASE + 0,
        }
        record_event = {"kind": "record-done", "cell": 3, "cseq": 99}
        assert merge_order(record_event) < merge_order(finding_event)
        # ...but still inside its own cell.
        assert merge_order(finding_event) < merge_order(
            {"kind": "cell-start", "cell": 4, "cseq": 0}
        )

    def test_writer_id_defaults_to_pid(self, tmp_path):
        writer = BusWriter(str(tmp_path))
        assert writer.writer_id == f"pid{os.getpid()}"
        writer.close()


class TestBusTailer:
    def _write_lines(self, path, lines, terminate_last=True):
        with open(path, "a", encoding="utf-8") as fh:
            for i, line in enumerate(lines):
                fh.write(line)
                if terminate_last or i < len(lines) - 1:
                    fh.write("\n")

    def test_merge_is_order_independent(self, tmp_path):
        # Two interleavings of the same per-writer streams must merge
        # to the same (cell, cseq) order.
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for bus in (a, b):
            os.makedirs(bus)
        events = [
            {"kind": "cell-start", "cell": c, "cseq": 0}
            for c in (0, 1, 2)
        ] + [
            {"kind": "cell-done", "cell": c, "cseq": 1}
            for c in (0, 1, 2)
        ]
        # Bus a: cells 0,2 on w0 and 1 on w1; bus b: the reverse split.
        def route_a(e):
            return "w0" if e["cell"] in (0, 2) else "w1"

        def route_b(e):
            return "w1" if e["cell"] in (0, 2) else "w0"

        for bus, route in ((a, route_a), (b, route_b)):
            for event in events:
                self._write_lines(
                    os.path.join(bus, f"events-{route(event)}.jsonl"),
                    [json.dumps(event)],
                )
        merged_a = sorted(BusTailer(a).poll(), key=merge_order)
        merged_b = sorted(BusTailer(b).poll(), key=merge_order)
        keys = [merge_order(e) for e in merged_a]
        assert keys == sorted(keys)
        assert [merge_order(e) for e in merged_b] == keys

    def test_resumable_offsets(self, tmp_path):
        path = str(tmp_path / "events-w0.jsonl")
        tailer = BusTailer(str(tmp_path))
        self._write_lines(path, ['{"kind": "heartbeat", "n": 1}'])
        assert len(tailer.poll()) == 1
        assert tailer.poll() == []  # nothing new
        self._write_lines(path, ['{"kind": "heartbeat", "n": 2}'])
        again = tailer.poll()
        assert [e["n"] for e in again] == [2]

    def test_partial_tail_line_left_for_next_poll(self, tmp_path):
        path = str(tmp_path / "events-w0.jsonl")
        tailer = BusTailer(str(tmp_path))
        self._write_lines(path, ['{"kind": "heartbeat", "n": 1}'])
        # A line still being appended (no trailing newline yet).
        self._write_lines(
            path, ['{"kind": "heartbeat", '], terminate_last=False
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
            path, ['{"kind": "heartbeat"}', "{not json", '{"ok": 1}']
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
        writer.heartbeat()
        writer.close()
        writer.close()
        assert writer.closed

    def test_events_after_close_are_dropped_silently(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")
        writer.heartbeat()
        writer.close()
        writer.heartbeat()  # must not raise or corrupt the file
        events = BusTailer(str(tmp_path)).poll()
        assert len(events) == 1


class TestCseqBudget:
    def test_max_cell_records_bound(self):
        assert MAX_CELL_RECORDS == FINDING_CSEQ_BASE - 2

    def test_cell_start_rejects_oversized_cell(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")
        with pytest.raises(ValueError, match="per-cell cap"):
            writer.cell_start(
                0, "distgnn", "OR", "hdrf", 4, MAX_CELL_RECORDS + 1
            )
        # Nothing was emitted: failing beats corrupting the merge.
        assert BusTailer(str(tmp_path)).poll() == []

    def test_cell_start_accepts_cap_exactly(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")
        writer.cell_start(
            0, "distgnn", "OR", "hdrf", 4, MAX_CELL_RECORDS
        )
        assert len(BusTailer(str(tmp_path)).poll()) == 1

    def test_cseq_overflow_raises_instead_of_colliding(
        self, tmp_path, record
    ):
        writer = BusWriter(str(tmp_path), "w0")
        writer.cell_start(0, "distgnn", "OR", "hdrf", 4, 1)
        # White box: wind the cell's counter to the finding range
        # instead of emitting 100k events.
        writer._cseq[0] = FINDING_CSEQ_BASE
        with pytest.raises(ValueError, match="finding range"):
            writer.record_done(0, 0, record)

    def test_finding_rejects_negative_index(self, tmp_path):
        writer = BusWriter(str(tmp_path), "w0")

        class _Finding:
            def to_dict(self):
                return {}

        with pytest.raises(ValueError, match=">= 0"):
            writer.finding(0, -1, _Finding())
