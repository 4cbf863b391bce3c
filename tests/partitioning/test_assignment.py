"""Tests for EdgePartition / VertexPartition containers."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.partitioning import EdgePartition, VertexPartition


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

    def test_partition_vertices(self, bridge_edge_partition):
        assert bridge_edge_partition.partition_vertices(0).tolist() == [
            0, 1, 2, 3,
        ]

    def test_partition_edges(self, bridge_edge_partition):
        edges = bridge_edge_partition.partition_edges(0)
        assert edges.shape == (6, 2)
        assert (edges < 4).all()

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
        cut = halves.graph.undirected_edges()[halves.cut_mask()]
        assert cut.tolist() == [[3, 4]]

    def test_local_edge_counts(self, halves):
        assert halves.local_edge_counts().tolist() == [6, 6]

    def test_partition_vertices(self, halves):
        assert halves.partition_vertices(1).tolist() == [4, 5, 6, 7]

    def test_partition_subgraphs_cover_all(self, halves):
        groups = halves.partition_subgraphs()
        combined = np.sort(np.concatenate(groups))
        assert np.array_equal(combined, np.arange(8))

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
