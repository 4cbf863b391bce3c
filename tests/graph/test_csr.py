"""Tests for the core Graph structure."""

import numpy as np
import pytest

from repro.graph import Graph, build_csr


class TestBuildCsr:
    def test_groups_targets_by_source(self):
        indptr, indices = build_csr(
            3, np.array([0, 0, 2, 1]), np.array([1, 2, 0, 2])
        )
        assert indptr.tolist() == [0, 2, 3, 4]
        assert indices[indptr[0] : indptr[1]].tolist() == [1, 2]
        assert indices[indptr[2] : indptr[3]].tolist() == [0]

    def test_targets_sorted_within_source(self):
        indptr, indices = build_csr(
            2, np.array([0, 0, 0]), np.array([1, 0, 1])
        )
        assert indices[: indptr[1]].tolist() == [0, 1, 1]

    def test_empty(self):
        indptr, indices = build_csr(
            4, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert indices.size == 0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            build_csr(2, np.array([0]), np.array([0, 1]))


class TestGraphConstruction:
    def test_basic_properties(self, two_cliques):
        assert two_cliques.num_vertices == 8
        assert two_cliques.num_edges == 13
        assert not two_cliques.directed

    def test_rejects_bad_edge_shape(self):
        with pytest.raises(ValueError):
            Graph(3, np.array([1, 2, 3]))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Graph(2, np.array([[0, 5]]))

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ValueError):
            Graph(0, np.zeros((0, 2), dtype=np.int64))

    def test_undirected_dedups_mirrored_edges(self):
        g = Graph(3, np.array([[0, 1], [1, 0], [1, 2]]))
        assert g.num_edges == 2

    def test_directed_keeps_both_arcs(self):
        g = Graph(3, np.array([[0, 1], [1, 0]]), directed=True)
        assert g.num_edges == 2

    def test_duplicate_arcs_removed(self):
        g = Graph(3, np.array([[0, 1], [0, 1]]), directed=True)
        assert g.num_edges == 1


class TestAdjacency:
    def test_neighbors_symmetric(self, two_cliques):
        assert two_cliques.neighbors(0).tolist() == [1, 2, 3]
        assert two_cliques.neighbors(3).tolist() == [0, 1, 2, 4]

    def test_degrees(self, two_cliques):
        degrees = two_cliques.degrees()
        assert degrees[3] == 4 and degrees[4] == 4
        assert degrees[0] == 3

    def test_symmetric_csr_handles_self_loop(self):
        g = Graph(2, np.array([[0, 0], [0, 1]]))
        degrees = g.degrees()
        assert degrees[0] >= 2  # loop plus edge to 1

    def test_undirected_edges_canonical(self):
        g = Graph(4, np.array([[3, 1], [1, 3], [0, 2]]), directed=True)
        und = g.undirected_edges()
        assert (und[:, 0] <= und[:, 1]).all()
        assert und.shape[0] == 2  # reciprocal arcs collapse


class TestSubgraph:
    def test_induced_subgraph_relabels(self, two_cliques):
        sub = two_cliques.subgraph([0, 1, 2, 3])
        assert sub.num_vertices == 4
        assert sub.num_edges == 6  # clique A intact

    def test_subgraph_drops_cross_edges(self, two_cliques):
        sub = two_cliques.subgraph([3, 4])
        assert sub.num_edges == 1  # only the bridge

    @pytest.mark.parametrize(
        "vertices, message",
        [
            ([-1, 2], "out of range"),  # would alias the last vertex
            ([2, 10], "out of range"),  # would raise a bare IndexError
            ([1, 2, 2], "distinct"),  # would leave a phantom vertex
        ],
    )
    def test_rejects_bad_vertex_ids(self, path_graph, vertices, message):
        with pytest.raises(ValueError, match=message):
            path_graph.subgraph(vertices)

    def test_empty_vertex_list_allowed(self, path_graph):
        assert path_graph.subgraph([]).num_edges == 0
