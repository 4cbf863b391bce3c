"""Tests for EdgePartition / VertexPartition containers."""

import numpy as np
import pytest

from repro.graph import Graph, load_dataset
from repro.partitioning import (
    VERTEX_PARTITIONER_NAMES,
    EdgePartition,
    VertexPartition,
    make_vertex_partitioner,
)

TINY_OR = load_dataset("OR", "tiny")
#: ``OR`` tiny with a self loop on every seventh vertex.
LOOPED_OR = Graph(
    TINY_OR.num_vertices,
    np.concatenate([
        TINY_OR.edges,
        np.arange(0, TINY_OR.num_vertices, 7).repeat(2).reshape(-1, 2),
    ]),
)


@pytest.fixture
def bridge_edge_partition(two_cliques):
    """Clique A's edges on partition 0, clique B's + bridge on 1."""
    edges = two_cliques.undirected_edges()
    in_a = (edges < 4).all(axis=1)
    assignment = np.where(in_a, 0, 1).astype(np.int32)
    return EdgePartition(two_cliques, edges, assignment, 2)


class TestEdgePartition:
    def test_edge_counts(self, bridge_edge_partition):
        assert bridge_edge_partition.edge_counts().tolist() == [6, 7]

    def test_vertex_counts_include_replicas(self, bridge_edge_partition):
        # Partition 0 covers vertices 0-3; partition 1 covers 3-7.
        assert bridge_edge_partition.vertex_counts().tolist() == [4, 5]

    def test_copies_per_vertex(self, bridge_edge_partition):
        copies = bridge_edge_partition.copies_per_vertex()
        assert copies[3] == 2  # the cut vertex
        assert copies[0] == 1
        assert copies.sum() == 9

    def test_masters_follow_majority(self, bridge_edge_partition):
        masters = bridge_edge_partition.masters()
        assert masters[3] == 0  # 3 edges in clique A vs 1 bridge edge
        assert masters[5] == 1

    def test_isolated_vertex_gets_owner(self, two_cliques):
        edges = two_cliques.undirected_edges()
        part = EdgePartition(
            two_cliques, edges, np.zeros(len(edges), dtype=np.int32), 3
        )
        masters = part.masters()
        assert (masters >= 0).all() and (masters < 3).all()

    def test_masters_of_isolated_vertices_and_ties(self):
        """Edge-less vertices own ``id % k``; a tie goes to the lowest id;
        the dtype is the assignment's."""
        graph = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 3)])
        edges = graph.undirected_edges()
        assignment = np.array([2, 1, 1, 0], dtype=np.int32)
        assert edges.tolist() == [[0, 1], [0, 2], [1, 2], [3, 3]]
        masters = EdgePartition(graph, edges, assignment, 3).masters()
        assert masters.dtype == np.int32
        assert masters.tolist() == [1, 1, 1, 0, 4 % 3, 5 % 3, 6 % 3]

    def test_rejects_mismatched_assignment(self, two_cliques):
        edges = two_cliques.undirected_edges()
        with pytest.raises(ValueError):
            EdgePartition(
                two_cliques, edges, np.zeros(3, dtype=np.int32), 2
            )

    def test_rejects_out_of_range_partition(self, two_cliques):
        edges = two_cliques.undirected_edges()
        bad = np.full(len(edges), 5, dtype=np.int32)
        with pytest.raises(ValueError):
            EdgePartition(two_cliques, edges, bad, 2)


class TestVertexPartition:
    @pytest.fixture
    def halves(self, two_cliques):
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
        return VertexPartition(two_cliques, assignment, 2)

    def test_vertex_counts(self, halves):
        assert halves.vertex_counts().tolist() == [4, 4]

    def test_cut_edges_only_bridge(self, halves):
        assert halves.num_cut_edges() == 1
        edges = halves.graph.undirected_edges()
        owners = halves.assignment[edges]
        assert edges[owners[:, 0] != owners[:, 1]].tolist() == [[3, 4]]

    def test_local_edge_counts(self, halves):
        assert halves.local_edge_counts().tolist() == [6, 6]

    def test_rejects_wrong_length(self, two_cliques):
        with pytest.raises(ValueError):
            VertexPartition(two_cliques, np.zeros(3, dtype=np.int32), 2)

    def test_rejects_out_of_range(self, two_cliques):
        with pytest.raises(ValueError):
            VertexPartition(
                two_cliques, np.full(8, 9, dtype=np.int32), 2
            )


def test_owner_tallies_are_derived_once_and_read_only():
    graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (2, 2)])
    partition = VertexPartition(graph, np.array([0, 0, 1, 1, 2, 0]), 4)
    tallies = partition.owner_tallies()
    assert partition.owner_tallies() is tallies
    local_edges, owned = tallies
    owner, edges = partition.assignment, graph.undirected_edges()
    for w in range(4):
        touches = (owner[edges[:, 0]] == w) | (owner[edges[:, 1]] == w)
        assert local_edges[w] == touches.sum()
        assert owned[w] == (owner == w).sum()
    for array in tallies:
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize("graph", [TINY_OR, LOOPED_OR], ids=["or", "looped"])
@pytest.mark.parametrize("k", [2, 8, 32])
@pytest.mark.parametrize("name", VERTEX_PARTITIONER_NAMES)
def test_cut_from_the_stored_edge_tally_is_the_mask_count(graph, k, name):
    """``num_cut_edges`` derives the cut from ``owner_tallies``; it
    equals counting the edges whose endpoints' owners differ."""
    if graph is LOOPED_OR:
        edges = graph.undirected_edges()
        assert (edges[:, 0] == edges[:, 1]).sum() > 0
    part = make_vertex_partitioner(name).partition(graph, k, seed=0)
    owners = part.assignment[graph.undirected_edges()]
    assert part.num_cut_edges() == int((owners[:, 0] != owners[:, 1]).sum())
