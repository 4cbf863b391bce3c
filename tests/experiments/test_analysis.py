"""Tests for the analysis summaries."""

import pytest

from repro.experiments import (
    DistributionSummary,
    TrainingParams,
    run_distgnn_grid,
    speedup_summary,
    summarize,
)


class TestDistributionSummary:
    def test_from_values(self):
        summary = DistributionSummary.from_values([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == pytest.approx(2.5)
        assert summary.count == 4
        assert summary.spread == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DistributionSummary.from_values([])


@pytest.fixture
def records(tiny_or):
    grid = [
        TrainingParams(feature_size=f, hidden_dim=32, num_layers=2)
        for f in (16, 64)
    ]
    return run_distgnn_grid(tiny_or, ["random", "hep100"], [4], grid)


def test_summarize_groups(records):
    summaries = summarize(records, lambda r: r.replication_factor)
    assert ("OR", "hep100", 4) in summaries
    # RF does not depend on the GNN parameters: zero spread per cell.
    assert summaries[("OR", "hep100", 4)].spread == pytest.approx(0.0)


def test_speedup_summary(records):
    summaries = speedup_summary(records)
    hep = summaries[("OR", "hep100", 4)]
    assert hep.mean > 1.0
    assert summaries[("OR", "random", 4)].mean == pytest.approx(1.0)


def test_speedup_summary_missing_baseline(records):
    without_baseline = [
        r for r in records if r.partitioner != "random"
    ]
    with pytest.raises(ValueError):
        speedup_summary(without_baseline)


def test_speedup_baseline_shares_the_comm_config(tiny_or):
    """In a comm sweep each record is compared with Random under its own
    comm config, whatever order the records come in."""
    from repro.experiments import CommConfig
    from repro.experiments.analysis import record_speedups

    grid = [TrainingParams(feature_size=64, hidden_dim=32, num_layers=2)]
    records = [
        record
        for comm in (CommConfig(compression="int8"), CommConfig())
        for record in run_distgnn_grid(
            tiny_or, ["random", "hep100"], [4], grid, comm_config=comm,
        )
    ]
    random = {r.comm_config: r for r in records if r.partitioner == "random"}
    assert random[CommConfig()].epoch_seconds != random[
        CommConfig(compression="int8")
    ].epoch_seconds
    for order in (records, records[::-1]):
        for record, speedup in record_speedups(order):
            assert speedup == (
                random[record.comm_config].epoch_seconds
                / record.epoch_seconds
            )
