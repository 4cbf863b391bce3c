"""Tests for halo statistics."""

import numpy as np
import pytest

from repro.partitioning import (
    MetisPartitioner,
    RandomVertexPartitioner,
    VertexPartition,
    halo_statistics,
)


@pytest.fixture
def halves(two_cliques):
    return VertexPartition(
        two_cliques,
        np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32),
        2,
    )


def test_hand_computed_bridge(halves):
    stats = halo_statistics(halves)
    assert stats.inner.tolist() == [4, 4]
    # Only vertex 3 (machine 0) and vertex 4 (machine 1) touch the cut.
    assert stats.boundary.tolist() == [1, 1]
    assert stats.halo.tolist() == [1, 1]


def test_single_partition_no_halo(two_cliques):
    part = VertexPartition(
        two_cliques, np.zeros(8, dtype=np.int32), 1
    )
    stats = halo_statistics(part)
    assert stats.boundary.tolist() == [0]
    assert stats.halo.tolist() == [0]


def test_ratios(halves):
    stats = halo_statistics(halves)
    assert np.allclose(stats.halo_ratio(), [0.25, 0.25])


def test_better_partition_smaller_halo(tiny_or):
    rnd = RandomVertexPartitioner().partition(tiny_or, 4, seed=0)
    metis = MetisPartitioner().partition(tiny_or, 4, seed=0)
    assert (
        halo_statistics(metis).halo.sum()
        < halo_statistics(rnd).halo.sum()
    )


def test_halo_bounded_by_remote_vertices(tiny_or):
    part = RandomVertexPartitioner().partition(tiny_or, 4, seed=0)
    stats = halo_statistics(part)
    # A machine's halo can never exceed the vertices it does not own.
    for machine in range(4):
        assert stats.halo[machine] <= tiny_or.num_vertices - stats.inner[machine]
