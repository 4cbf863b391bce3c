"""Cross-run diffing: self-diffs are clean, regressions are typed."""

import pytest

from repro.obs.analysis import diff_records, diff_runs, diff_snapshots
from repro.obs.analysis.diff import DiffTolerances
from repro.obs.analysis.load import RunData
from .conftest import snapshot_entry


def make_snapshot():
    return [
        snapshot_entry("cluster.bytes_sent", value=100.0,
                       labels={"machine": 0}),
        snapshot_entry("cluster.bytes_sent", value=150.0,
                       labels={"machine": 1}),
        snapshot_entry(
            "cluster.phase_seconds", kind="histogram", unit="seconds",
            labels={"phase": "forward"}, count=2, sum=1.0,
        ),
        snapshot_entry(
            "cluster.phase_seconds", kind="histogram", unit="seconds",
            labels={"phase": "backward"}, count=2, sum=3.0,
        ),
    ]


class TestDiffSnapshots:
    def test_self_diff_clean(self):
        snapshot = make_snapshot()
        diff = diff_snapshots(snapshot, snapshot)
        assert diff.clean
        assert diff.to_dict()["clean"] is True

    def test_value_move_beyond_tolerance_flagged(self):
        a = make_snapshot()
        b = make_snapshot()
        b[0]["value"] = 120.0
        diff = diff_snapshots(a, b)
        assert not diff.clean
        assert len(diff.changed_metrics) == 1
        change = diff.changed_metrics[0]
        assert change["metric"] == "cluster.bytes_sent{machine=0}"
        assert change["a"] == 100.0 and change["b"] == 120.0

    def test_added_and_removed_series(self):
        a = make_snapshot()
        b = make_snapshot()[1:] + [
            snapshot_entry("cluster.lost_messages", value=1.0)
        ]
        diff = diff_snapshots(a, b)
        assert diff.added_metrics == ["cluster.lost_messages"]
        assert diff.removed_metrics == ["cluster.bytes_sent{machine=0}"]

    def test_phase_mix_shift(self):
        a = make_snapshot()
        b = make_snapshot()
        b[2]["sum"] = 3.0  # forward grows from 25% to 50%
        diff = diff_snapshots(a, b)
        assert diff.phase_mix["shifted"] is True
        assert diff.phase_mix["l1_shift"] == pytest.approx(0.5)

    def test_tiny_float_drift_tolerated(self):
        a = make_snapshot()
        b = make_snapshot()
        b[0]["value"] = 100.0 + 1e-13
        assert diff_snapshots(a, b).clean


class TestDiffRecords:
    def test_self_diff_clean(self, make_record):
        records = [
            make_record(partitioner=p) for p in ("random", "hdrf")
        ]
        assert diff_records(records, records).clean

    def test_epoch_regression_flagged(self, make_record):
        a = [make_record(epoch_seconds=1.0)]
        b = [make_record(epoch_seconds=1.5)]
        diff = diff_records(a, b)
        assert len(diff.changed_cells) == 1
        assert diff.changed_cells[0]["field"] == "epoch_seconds"

    def test_partitioning_seconds_is_not_compared(self, make_record):
        """Wall-clock partitioning time differs across hosts and must
        never fail a diff."""
        a = [make_record(partitioning_seconds=1.0)]
        b = [make_record(partitioning_seconds=99.0)]
        assert diff_records(a, b).clean

    def test_cells_added_and_removed(self, make_record):
        a = [make_record(partitioner="random")]
        b = [make_record(partitioner="hdrf")]
        diff = diff_records(a, b)
        assert len(diff.added_cells) == 1
        assert "hdrf" in diff.added_cells[0]
        assert len(diff.removed_cells) == 1
        assert "random" in diff.removed_cells[0]

    def test_engines_distinguished_in_cell_keys(
        self, make_record, make_dgl_record
    ):
        """A DistGNN and a DistDGL record with identical coordinates
        are different cells, not a collision."""
        diff = diff_records([make_record()], [make_dgl_record()])
        assert len(diff.added_cells) == 1
        assert len(diff.removed_cells) == 1


class TestDiffRuns:
    def test_run_self_diff_clean(self, make_record):
        run = RunData(
            label="x",
            records=[make_record()],
            metrics=make_snapshot(),
        )
        diff = diff_runs(run, run)
        assert diff.clean
        assert diff.label_a == "x"

    def test_event_mix_compared_when_both_sides_have_traces(self):
        run_a = RunData(events=[{"kind": "phase"}, {"kind": "phase"}])
        run_b = RunData(events=[{"kind": "phase"}, {"kind": "mark"}])
        diff = diff_runs(run_a, run_b)
        assert diff.event_mix == {
            "mark": {"a": 0, "b": 1},
            "phase": {"a": 2, "b": 1},
        }

    def test_snapshot_phase_mix_wins_over_records(self, make_record):
        record = make_record(
            obs_metrics={"phase_seconds": {"forward": 1.0}}
        )
        run = RunData(records=[record], metrics=make_snapshot())
        diff = diff_runs(run, run)
        # The snapshot has forward+backward; records only forward.
        assert set(diff.phase_mix["phases"]) == {"forward", "backward"}


def test_tolerances_exceeded_logic():
    tolerances = DiffTolerances(rel=0.01, abs_floor=1e-6)
    assert not tolerances.exceeded(0.0, 0.0)
    assert not tolerances.exceeded(1.0, 1.0000001)  # below abs floor
    assert not tolerances.exceeded(100.0, 100.5)  # 0.5% < 1%
    assert tolerances.exceeded(100.0, 102.0)  # 2% > 1%
