"""Tests for the multilevel partitioning machinery."""

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.partitioning.edgecut.multilevel import (
    WeightedGraph,
    coarsen,
    cut_weight,
    initial_partition,
    multilevel_partition,
    rebalance,
    refine,
)


@pytest.fixture
def weighted_two_cliques(two_cliques):
    return WeightedGraph.from_edges(
        two_cliques.num_vertices, two_cliques.undirected_edges()
    )


class TestWeightedGraph:
    def test_from_edges_symmetric(self, weighted_two_cliques):
        wg = weighted_two_cliques
        nbrs, wgts = wg.neighbors(3)
        assert sorted(nbrs.tolist()) == [0, 1, 2, 4]
        assert (wgts == 1).all()

    def test_total_vertex_weight(self, weighted_two_cliques):
        assert weighted_two_cliques.total_vertex_weight == 8


class TestCoarsen:
    def test_halves_vertex_count_roughly(self, rng):
        g = load_dataset("OR", "tiny")
        wg = WeightedGraph.from_edges(g.num_vertices, g.undirected_edges())
        coarse, mapping = coarsen(wg, rng)
        assert coarse.num_vertices < wg.num_vertices
        assert coarse.num_vertices >= wg.num_vertices // 2
        assert mapping.shape == (wg.num_vertices,)

    def test_vertex_weight_conserved(self, weighted_two_cliques, rng):
        coarse, _ = coarsen(weighted_two_cliques, rng)
        assert coarse.total_vertex_weight == 8

    def test_edge_weight_conserved_or_contracted(
        self, weighted_two_cliques, rng
    ):
        coarse, mapping = coarsen(weighted_two_cliques, rng)
        # Every surviving coarse edge weight accounts for >= 1 fine edge;
        # contracted (intra-pair) edges disappear.
        total_coarse = int(coarse.eweights.sum()) // 2
        assert total_coarse <= 13
        assert total_coarse >= 13 - weighted_two_cliques.num_vertices // 2


class TestCutWeight:
    def test_hand_value(self, weighted_two_cliques):
        assignment = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
        assert cut_weight(weighted_two_cliques, assignment) == 1

    def test_zero_for_single_block(self, weighted_two_cliques):
        assignment = np.zeros(8, dtype=np.int32)
        assert cut_weight(weighted_two_cliques, assignment) == 0


class TestInitialPartitionAndRefine:
    def test_initial_covers_all(self, weighted_two_cliques, rng):
        assignment = initial_partition(weighted_two_cliques, 2, rng)
        assert (assignment >= 0).all()
        assert len(np.unique(assignment)) == 2

    def test_rebalance_respects_cap(self, weighted_two_cliques, rng):
        assignment = np.zeros(8, dtype=np.int32)  # everything on 0
        rebalance(weighted_two_cliques, assignment, 2, max_load=5, rng=rng)
        loads = np.bincount(assignment, minlength=2)
        assert loads.max() <= 5

    def test_refine_reduces_cut(self, weighted_two_cliques, rng):
        # Deliberately bad split: one vertex of clique A on partition 1.
        assignment = np.array([1, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
        before = cut_weight(weighted_two_cliques, assignment)
        refine(
            weighted_two_cliques, assignment, 2,
            max_load=5, passes=3, rng=rng,
        )
        after = cut_weight(weighted_two_cliques, assignment)
        assert after < before
        assert after == 1  # optimal


class TestMultilevelEndToEnd:
    def test_balanced_and_low_cut(self):
        g = load_dataset("DI", "tiny")
        wg = WeightedGraph.from_edges(g.num_vertices, g.undirected_edges())
        assignment = multilevel_partition(
            wg, 4, epsilon=0.05, refine_passes=3, seed=0,
        )
        loads = np.bincount(assignment, minlength=4)
        assert loads.max() <= 1.1 * g.num_vertices / 4
        assert cut_weight(wg, assignment) < 0.25 * g.num_edges
