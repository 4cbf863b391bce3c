"""Tests for the DistGNN cost-accounting engine."""

import numpy as np
import pytest

from repro.cluster import RecoveryPolicy
from repro.costmodel import CostModel
from repro.distgnn import DistGnnEngine
from repro.partitioning import (
    HepPartitioner,
    RandomEdgePartitioner,
    replication_factor,
)


@pytest.fixture(scope="module")
def partitions(tiny_or_module):
    rnd = RandomEdgePartitioner().partition(tiny_or_module, 4, seed=0)
    hep = HepPartitioner(100).partition(tiny_or_module, 4, seed=0)
    return rnd, hep


@pytest.fixture(scope="module")
def tiny_or_module():
    from repro.graph import load_dataset

    return load_dataset("OR", "tiny")


def make_engine(partition, **kw):
    defaults = dict(feature_size=32, hidden_dim=32, num_layers=2)
    defaults.update(kw)
    return DistGnnEngine(partition, **defaults)


class TestEpochBreakdown:
    def test_phases_positive(self, partitions):
        breakdown = make_engine(partitions[0]).simulate_epoch()
        assert breakdown.forward_seconds > 0
        assert breakdown.backward_seconds > 0
        assert breakdown.network_bytes > 0
        assert breakdown.epoch_seconds == pytest.approx(
            breakdown.forward_seconds
            + breakdown.backward_seconds
            + breakdown.sync_seconds
            + breakdown.optimizer_seconds
        )

    def test_epochs_deterministic(self, partitions):
        engine = make_engine(partitions[0])
        a = engine.simulate_epoch()
        b = engine.simulate_epoch()
        assert a.epoch_seconds == b.epoch_seconds

    def test_backward_heavier_than_forward(self, partitions):
        breakdown = make_engine(partitions[0]).simulate_epoch()
        assert breakdown.backward_seconds > breakdown.forward_seconds


class TestPartitioningEffect:
    def test_better_partition_trains_faster(self, partitions):
        rnd, hep = partitions
        t_rnd = make_engine(rnd).simulate_epoch().epoch_seconds
        t_hep = make_engine(hep).simulate_epoch().epoch_seconds
        assert t_hep < t_rnd

    def test_traffic_tracks_replication_factor(self, partitions):
        rnd, hep = partitions
        b_rnd = make_engine(rnd).simulate_epoch().network_bytes
        b_hep = make_engine(hep).simulate_epoch().network_bytes
        rf_ratio = replication_factor(hep) / replication_factor(rnd)
        byte_ratio = b_hep / b_rnd
        assert byte_ratio < 1.0
        # Traffic is proportional to (RF - 1), so the byte ratio must be
        # even smaller than the RF ratio.
        assert byte_ratio < rf_ratio

    def test_memory_tracks_replication_factor(self, partitions):
        rnd, hep = partitions
        m_rnd = make_engine(rnd, feature_size=512).total_memory()
        m_hep = make_engine(hep, feature_size=512).total_memory()
        assert m_hep < m_rnd


class TestMemoryModel:
    def test_feature_size_raises_footprint(self, partitions):
        small = make_engine(partitions[0], feature_size=16).total_memory()
        large = make_engine(partitions[0], feature_size=512).total_memory()
        assert large > 2 * small

    def test_layers_raise_footprint(self, partitions):
        shallow = make_engine(partitions[0], num_layers=2).total_memory()
        deep = make_engine(partitions[0], num_layers=4).total_memory()
        assert deep > shallow

    def test_budget_enforcement(self, partitions):
        engine = DistGnnEngine(
            partitions[0],
            feature_size=512,
            hidden_dim=512,
            num_layers=4,
            cost_model=CostModel(memory_budget_bytes=1e3),
        )
        from repro.cluster import OutOfMemoryError

        with pytest.raises(OutOfMemoryError):
            engine.check_memory_budget()

    def test_memory_balance_at_least_one(self, partitions):
        assert make_engine(partitions[0]).memory_utilization_balance() >= 1.0


class TestValidation:
    def test_rejects_bad_dimensions(self, partitions):
        with pytest.raises(ValueError):
            DistGnnEngine(partitions[0], feature_size=0, hidden_dim=4,
                          num_layers=2)

    @pytest.mark.parametrize("num_classes", [0, -3])
    def test_rejects_non_positive_num_classes(self, partitions, num_classes):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            DistGnnEngine(partitions[0], 8, 8, 2, num_classes=num_classes)

    @pytest.mark.parametrize("num_epochs", [0, -1])
    def test_rejects_non_positive_epoch_counts(self, partitions, num_epochs):
        """``simulate_training(0)`` used to return ``[]`` silently."""
        engine = make_engine(partitions[0])
        with pytest.raises(ValueError, match="num_epochs"):
            engine.simulate_training(num_epochs)
        with pytest.raises(ValueError, match="num_epochs"):
            engine.simulate_training(num_epochs, recovery=RecoveryPolicy())

    @pytest.mark.parametrize("stretch", [
        [1.0, 0.5, 1.0, 1.0],  # would make machine 1 faster
        [1.0, 1.0, 1.0],  # wrong length: was a numpy broadcast error
        [1.0, np.nan, 1.0, 1.0],
        [1.0, np.inf, 1.0, 1.0],
        [[1.0, 1.0, 1.0, 1.0]],
    ])
    def test_rejects_bad_speed_multipliers(self, partitions, stretch):
        """Rejected before the epoch touches the engine or its cluster."""
        engine = make_engine(partitions[0])
        with pytest.raises(ValueError, match="speed_multipliers"):
            engine.simulate_epoch(speed_multipliers=np.array(stretch))
        assert engine.cluster.timeline.records == []
        assert engine.comm.total_epochs == 0
        stretched = engine.simulate_epoch(np.array([1.0, 2.0, 1.0, 1.0]))
        assert stretched.forward_seconds >= (
            make_engine(partitions[0]).simulate_epoch().forward_seconds
        )


class TestScaleOut:
    def test_speedup_grows_with_machines(self, tiny_or_module):
        """Partitioning effectiveness increases with the scale-out factor
        (paper Figure 11a)."""
        speedups = []
        for k in (4, 16):
            rnd = RandomEdgePartitioner().partition(
                tiny_or_module, k, seed=0
            )
            hep = HepPartitioner(100).partition(tiny_or_module, k, seed=0)
            t_rnd = make_engine(rnd).simulate_epoch().epoch_seconds
            t_hep = make_engine(hep).simulate_epoch().epoch_seconds
            speedups.append(t_rnd / t_hep)
        assert speedups[1] > speedups[0]
