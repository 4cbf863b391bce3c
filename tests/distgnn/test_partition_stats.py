"""``EdgePartition.replica_stats``: what every DistGNN engine on a
partition shares, against the per-engine derivation it replaced."""

import numpy as np
import pytest

from repro.distgnn import DistGnnEngine
from repro.graph import Graph, load_dataset
from repro.partitioning import (
    EdgePartition,
    HdrfPartitioner,
    RandomEdgePartitioner,
)


def collect_partition_stats(part, k):
    """The pre-PR ``DistGnnEngine._collect_partition_stats``, verbatim
    but for returning its arrays in ``ReplicaStats`` order."""
    edges_per_machine = part.edge_counts().astype(np.float64)
    vertices_per_machine = part.vertex_counts().astype(np.float64)
    copies = part.copies_per_vertex()
    masters = part.masters()
    masters_per_machine = np.bincount(
        masters, minlength=k
    ).astype(np.float64)
    # Per machine: replicas that are NOT the master (they sync).
    pairs = part.replica_pairs()
    is_master_replica = masters[pairs[:, 1]] == pairs[:, 0]
    nonmaster_per_machine = np.bincount(
        pairs[~is_master_replica, 0], minlength=k
    ).astype(np.float64)
    # Per machine: sync counterparties of the masters it hosts:
    # sum over mastered vertices of (copies - 1).
    excess = (copies[pairs[:, 1]] - 1) * is_master_replica
    master_excess_per_machine = np.bincount(
        pairs[:, 0], weights=excess, minlength=k
    ).astype(np.float64)
    nonmaster_pairs = pairs[~is_master_replica]
    flat = nonmaster_pairs[:, 0] * k + masters[nonmaster_pairs[:, 1]]
    pair_counts = (
        np.bincount(flat, minlength=k * k)
        .reshape(k, k)
        .astype(np.float64)
    )
    return (
        edges_per_machine, vertices_per_machine, masters_per_machine,
        nonmaster_per_machine, master_excess_per_machine, pair_counts,
    )


def _partitions():
    graph = load_dataset("OR", "tiny")
    yield RandomEdgePartitioner().partition(graph, 8, seed=0)
    yield HdrfPartitioner().partition(graph, 32, seed=1)
    # Isolated vertices, a self loop, and more machines than edges.
    sparse = Graph(9, [(0, 1), (1, 2), (2, 2), (4, 5)])
    yield EdgePartition(sparse, sparse.undirected_edges(), [0, 3, 3, 1], 6)


@pytest.mark.parametrize("partition", list(_partitions()))
def test_stats_equal_the_per_engine_derivation(partition):
    stats = partition.replica_stats()
    expected = collect_partition_stats(partition, partition.num_partitions)
    assert len(stats) == len(expected)
    for got, want in zip(stats, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(stats.pair_counts.sum(axis=1), stats.nonmasters)
    assert np.array_equal(stats.pair_counts.sum(axis=0), stats.master_excess)


def test_stats_are_derived_once_and_read_only():
    partition = next(_partitions())
    stats = partition.replica_stats()
    assert partition.replica_stats() is stats
    one = DistGnnEngine(partition, 16, 16, 2)
    two = DistGnnEngine(partition, 64, 32, 3)
    assert one.pair_counts is two.pair_counts is stats.pair_counts
    assert one.edges_per_machine is stats.edges
    for array in stats:
        with pytest.raises(ValueError):
            array[...] = 0
    before = [array.copy() for array in stats]
    one.simulate_training(2)
    two.simulate_training(1)
    for array, copy in zip(stats, before):
        assert np.array_equal(array, copy)
