"""Tests for delayed partial aggregation (cd-r extension)."""

import numpy as np
import pytest

from repro.distgnn import (
    DelayedAggregationTrainer,
    DistributedFullBatchTrainer,
)
from repro.graph import random_split
from repro.partitioning import HdrfPartitioner


@pytest.fixture
def problem(tiny_or, rng):
    labels = rng.integers(0, 4, size=tiny_or.num_vertices)
    features = rng.normal(size=(tiny_or.num_vertices, 8)) * 0.3
    features[np.arange(tiny_or.num_vertices), labels] += 2.0
    mask = random_split(tiny_or, seed=1).train_mask(tiny_or.num_vertices)
    return features, labels, mask


@pytest.fixture
def partition(tiny_or):
    return HdrfPartitioner().partition(tiny_or, 4, seed=0)


def test_r1_equals_synchronous(tiny_or, problem, partition):
    """refresh_interval=1 must be bit-identical to the exact trainer."""
    features, labels, mask = problem
    sync = DistributedFullBatchTrainer(
        partition, features, labels, mask, hidden_dim=16, num_layers=2,
        seed=3,
    )
    delayed = DelayedAggregationTrainer(
        partition, features, labels, mask, refresh_interval=1,
        hidden_dim=16, num_layers=2, seed=3,
    )
    assert np.allclose(sync.train(4), delayed.train(4), atol=1e-12)
    assert delayed.communication_saving == 0.0


def test_r2_saves_half_the_traffic(tiny_or, problem, partition):
    features, labels, mask = problem
    delayed = DelayedAggregationTrainer(
        partition, features, labels, mask, refresh_interval=2,
        hidden_dim=16, num_layers=2, seed=3,
    )
    delayed.train(6)
    assert delayed.communication_saving == pytest.approx(0.5, abs=0.05)


def test_delayed_still_converges(tiny_or, problem, partition):
    features, labels, mask = problem
    delayed = DelayedAggregationTrainer(
        partition, features, labels, mask, refresh_interval=3,
        hidden_dim=16, num_layers=2, seed=3,
    )
    losses = delayed.train(20)
    assert losses[-1] < 0.6 * losses[0]


def test_staleness_perturbs_but_tracks_synchronous(
    tiny_or, problem, partition
):
    features, labels, mask = problem
    sync_trainer = DistributedFullBatchTrainer(
        partition, features, labels, mask, hidden_dim=16, num_layers=2,
        seed=3,
    )
    delayed_trainer = DelayedAggregationTrainer(
        partition, features, labels, mask, refresh_interval=2,
        hidden_dim=16, num_layers=2, seed=3,
    )
    sync = np.asarray(sync_trainer.train(10))
    delayed = np.asarray(delayed_trainer.train(10))
    # Different trajectories (staleness is real)...
    assert not np.allclose(sync, delayed)
    # ...but the delayed run still descends to the same neighbourhood.
    assert delayed[-1] < 1.5 * sync[-1] + 0.05
    assert delayed_trainer.communication_saving > 0.3


def test_invalid_interval_rejected(tiny_or, problem, partition):
    features, labels, mask = problem
    with pytest.raises(ValueError):
        DelayedAggregationTrainer(
            partition, features, labels, mask, refresh_interval=0
        )
