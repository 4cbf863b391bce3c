"""Tests for the synthetic generators: determinism and structural shape."""

import numpy as np
import pytest

from repro.graph import (
    Graph,
    affiliation_graph,
    graph_stats,
    powerlaw_cluster_graph,
    preferential_attachment_graph,
    rmat_edge_chunks,
    road_network_graph,
    web_host_graph,
)


def rmat_edges(scale, num_edges, **kwargs):
    return np.concatenate(list(rmat_edge_chunks(scale, num_edges, **kwargs)))


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda s: Graph(512, rmat_edges(9, 3000, seed=s), directed=True),
            lambda s: powerlaw_cluster_graph(400, 5, seed=s),
            lambda s: affiliation_graph(300, 150, seed=s),
            lambda s: road_network_graph(15, 15, seed=s),
            lambda s: preferential_attachment_graph(400, seed=s),
            lambda s: web_host_graph(400, seed=s),
        ],
    )
    def test_same_seed_same_graph(self, factory):
        a, b = factory(3), factory(3)
        assert a.num_vertices == b.num_vertices
        assert np.array_equal(a.edges, b.edges)

    def test_different_seed_different_graph(self):
        a = powerlaw_cluster_graph(400, 5, seed=1)
        b = powerlaw_cluster_graph(400, 5, seed=2)
        assert not np.array_equal(a.edges, b.edges)


class TestRmat:
    def test_size_and_direction(self):
        edges = rmat_edges(9, 4000, seed=0)
        assert edges.shape == (4000, 2)
        assert edges.min() >= 0 and edges.max() < 512

    def test_exact_count_across_sizes(self):
        # Distinct mode loops until it has the requested count of
        # *distinct* edges (no 1.3x-oversample undershoot).
        for m in (1, 100, 2500):
            assert rmat_edges(9, m, seed=1, distinct=True).shape == (m, 2)

    def test_edges_are_distinct(self):
        edges = rmat_edges(8, 2000, seed=0, distinct=True)
        keys = edges[:, 0] * 256 + edges[:, 1]
        assert np.unique(keys).size == keys.size

    def test_saturation_rejected(self):
        # 2^3 vertices cannot host 200 distinct non-loop edges.
        with pytest.raises(ValueError):
            rmat_edges(3, 200, seed=0, distinct=True)

    def test_skewed_degrees(self):
        edges = rmat_edges(10, 8000, seed=0, distinct=True)
        degrees = Graph(1024, edges, directed=True).degrees()
        assert degrees.max() > 8 * degrees.mean()

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat_edges(5, 100, a=0.6, b=0.3, c=0.3)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            rmat_edges(0, 100)


class TestRmatChunks:
    """The chunk generator feeding the out-of-core pipeline."""

    def test_blocks_concatenate_to_exact_count(self):
        blocks = list(rmat_edge_chunks(10, 5000, seed=3))
        edges = np.concatenate(blocks)
        assert edges.shape == (5000, 2)
        assert edges.min() >= 0 and edges.max() < 1024

    def test_deterministic(self):
        a = np.concatenate(list(rmat_edge_chunks(9, 3000, seed=5)))
        b = np.concatenate(list(rmat_edge_chunks(9, 3000, seed=5)))
        assert np.array_equal(a, b)

    def test_undirected_rows_are_canonical(self):
        edges = np.concatenate(
            list(rmat_edge_chunks(9, 2000, seed=0, directed=False))
        )
        assert (edges[:, 0] <= edges[:, 1]).all()

    def test_no_self_loops(self):
        edges = np.concatenate(
            list(rmat_edge_chunks(8, 3000, seed=2))
        )
        assert (edges[:, 0] != edges[:, 1]).all()


class TestPowerlawCluster:
    def test_high_clustering(self):
        g = powerlaw_cluster_graph(600, 6, triangle_prob=0.8, seed=0)
        assert graph_stats(g).clustering > 0.1

    def test_undirected(self):
        assert not powerlaw_cluster_graph(100, 3, seed=0).directed

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(5, 10)

    def test_bad_triangle_prob_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(100, 3, triangle_prob=1.5)


class TestAffiliation:
    def test_dense_and_clustered(self):
        g = affiliation_graph(400, 300, mean_group_size=8, seed=0)
        stats = graph_stats(g)
        assert stats.mean_degree > 5
        assert stats.clustering > 0.3  # cliques everywhere

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            affiliation_graph(1, 10)


class TestRoadNetwork:
    def test_low_degree(self):
        g = road_network_graph(30, 30, seed=0)
        assert g.directed
        assert g.degrees().mean() < 10
        assert g.degrees().max() <= 16

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            road_network_graph(1, 5)


class TestPreferentialAttachment:
    def test_heavy_in_degree_tail(self):
        g = preferential_attachment_graph(800, mean_out_degree=8, seed=0)
        assert g.directed
        degrees = g.degrees()
        assert degrees.max() > 6 * degrees.mean()

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(2)


class TestCommunityStructure:
    """The planted communities must be discoverable - this is what the
    study's in-memory partitioners exploit."""

    def test_intra_community_edges_dominate(self):
        g = powerlaw_cluster_graph(
            600, 6, community_mean_size=60, inter_fraction=0.1, seed=0
        )
        # Community ids are contiguous blocks of ~60; a coarse proxy:
        block = g.edges // 60
        same = (block[:, 0] == block[:, 1]).mean()
        assert same > 0.5

    def test_web_host_locality(self):
        g = web_host_graph(800, host_mean_size=50, seed=0)
        block = g.edges // 50
        assert (block[:, 0] == block[:, 1]).mean() > 0.4
