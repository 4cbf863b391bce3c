"""Tests for the DistDGL mini-batch engine."""

import numpy as np
import pytest

from repro.distdgl import DistDglEngine
from repro.graph import load_dataset, random_split
from repro.partitioning import MetisPartitioner, RandomVertexPartitioner


@pytest.fixture(scope="module")
def graph():
    return load_dataset("OR", "tiny")


@pytest.fixture(scope="module")
def split(graph):
    return random_split(graph, seed=7)


@pytest.fixture(scope="module")
def partitions(graph):
    return {
        "random": RandomVertexPartitioner().partition(graph, 4, seed=0),
        "metis": MetisPartitioner().partition(graph, 4, seed=0),
    }


def make_engine(partition, split, **kw):
    defaults = dict(
        feature_size=32, hidden_dim=32, num_layers=2,
        global_batch_size=32, seed=0,
    )
    defaults.update(kw)
    return DistDglEngine(partition, split, **defaults)


class TestStep:
    def test_phases_positive(self, partitions, split):
        step = make_engine(partitions["random"], split).run_step()
        assert step.sample_seconds > 0
        assert step.fetch_seconds > 0
        assert step.forward_seconds > 0
        assert step.backward_seconds > step.forward_seconds
        assert step.step_seconds == pytest.approx(
            step.sample_seconds + step.fetch_seconds + step.forward_seconds
            + step.backward_seconds + step.update_seconds
        )

    def test_remote_plus_local_inputs(self, partitions, split):
        step = make_engine(partitions["random"], split).run_step()
        assert step.remote_input_vertices > 0
        assert step.local_input_vertices > 0

    def test_input_balance_at_least_one(self, partitions, split):
        step = make_engine(partitions["random"], split).run_step()
        assert step.input_vertex_balance >= 1.0


class TestEpoch:
    def test_step_count_follows_batch_size(self, partitions, split):
        engine = make_engine(
            partitions["random"], split, global_batch_size=16
        )
        report = engine.run_epoch()
        expected = int(np.ceil(split.train.shape[0] / 16))
        assert len(report.steps) == expected

    def test_phase_seconds_sum_to_epoch(self, partitions, split):
        report = make_engine(partitions["random"], split).run_epoch()
        assert sum(report.phase_seconds().values()) == pytest.approx(
            report.epoch_seconds
        )

    def test_training_time_balance(self, partitions, split):
        report = make_engine(partitions["random"], split).run_epoch()
        assert report.training_time_balance() >= 1.0


class TestPartitioningEffect:
    def test_metis_fetches_fewer_remote_vertices(self, partitions, split):
        rnd = make_engine(partitions["random"], split, seed=1).run_epoch()
        metis = make_engine(partitions["metis"], split, seed=1).run_epoch()
        assert (
            metis.remote_input_vertices < rnd.remote_input_vertices
        )

    def test_metis_trains_faster(self, partitions, split):
        rnd = make_engine(
            partitions["random"], split, feature_size=256, seed=1
        ).run_epoch()
        metis = make_engine(
            partitions["metis"], split, feature_size=256, seed=1
        ).run_epoch()
        assert metis.epoch_seconds < rnd.epoch_seconds

    def test_metis_lower_network_traffic(self, partitions, split):
        rnd = make_engine(partitions["random"], split, seed=1).run_epoch()
        metis = make_engine(partitions["metis"], split, seed=1).run_epoch()
        assert metis.network_bytes < rnd.network_bytes


class TestParameterEffects:
    def test_gat_more_compute_than_sage(self, partitions, split):
        sage = make_engine(
            partitions["random"], split, arch="sage", seed=2
        ).run_epoch()
        gat = make_engine(
            partitions["random"], split, arch="gat", seed=2
        ).run_epoch()
        assert (
            gat.phase_seconds()["forward"]
            > sage.phase_seconds()["forward"]
        )

    def test_feature_size_raises_fetch_not_sample(self, partitions, split):
        small = make_engine(
            partitions["random"], split, feature_size=16, seed=2
        ).run_epoch().phase_seconds()
        large = make_engine(
            partitions["random"], split, feature_size=512, seed=2
        ).run_epoch().phase_seconds()
        assert large["fetch"] > 2 * small["fetch"]
        assert large["sample"] == pytest.approx(
            small["sample"], rel=0.2
        )

    def test_hidden_dim_raises_compute_not_fetch(self, partitions, split):
        small = make_engine(
            partitions["random"], split, hidden_dim=16, seed=2
        ).run_epoch().phase_seconds()
        large = make_engine(
            partitions["random"], split, hidden_dim=512, seed=2
        ).run_epoch().phase_seconds()
        assert large["forward"] > 2 * small["forward"]
        assert large["fetch"] == pytest.approx(small["fetch"], rel=0.2)


class TestValidation:
    def test_rejects_unknown_arch(self, partitions, split):
        with pytest.raises(ValueError):
            make_engine(partitions["random"], split, arch="mlp")

    def test_rejects_bad_batch(self, partitions, split):
        with pytest.raises(ValueError):
            make_engine(partitions["random"], split, global_batch_size=0)

    def test_rejects_fanout_mismatch(self, partitions, split):
        with pytest.raises(ValueError):
            make_engine(
                partitions["random"], split, num_layers=2, fanouts=(5,)
            )


def test_empty_report_balances_are_one():
    """``training_time_balance`` on a report without steps used to raise
    ``AttributeError: 'int' object has no attribute 'mean'``."""
    from repro.distdgl import EpochReport

    report = EpochReport()
    assert report.training_time_balance() == 1.0
    assert report.mean_input_vertex_balance == 1.0
