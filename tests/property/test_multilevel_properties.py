"""Property-based tests for the multilevel partitioning machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.partitioning.edgecut.multilevel import (
    WeightedGraph,
    coarsen,
    cut_weight,
    multilevel_partition,
)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=8, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    extras = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2))
    extras = extras[extras[:, 0] != extras[:, 1]]
    return Graph(n, np.concatenate([chain, extras]))


@settings(max_examples=25, deadline=None)
@given(graph=connected_graphs(), seed=st.integers(0, 50))
def test_coarsening_invariants(graph, seed):
    rng = np.random.default_rng(seed)
    wg = WeightedGraph.from_edges(graph.num_vertices, graph.undirected_edges())
    coarse, mapping = coarsen(wg, rng)
    # Vertex weight is conserved exactly.
    assert coarse.total_vertex_weight == wg.total_vertex_weight
    # Mapping is total and onto 0..n'-1.
    assert mapping.shape == (graph.num_vertices,)
    assert mapping.min() >= 0
    assert mapping.max() == coarse.num_vertices - 1
    # Coarsening never grows the graph.
    assert coarse.num_vertices <= wg.num_vertices
    # Total edge weight is conserved up to contracted (intra-pair) edges.
    assert coarse.eweights.sum() <= wg.eweights.sum()


@settings(max_examples=20, deadline=None)
@given(
    graph=connected_graphs(),
    k=st.integers(min_value=2, max_value=5),
    seed=st.integers(0, 50),
)
def test_multilevel_partition_valid_and_balanced(graph, k, seed):
    wg = WeightedGraph.from_edges(graph.num_vertices, graph.undirected_edges())
    assignment = multilevel_partition(
        wg, k, epsilon=0.10, refine_passes=2, seed=seed
    )
    assert assignment.shape == (graph.num_vertices,)
    assert assignment.min() >= 0 and assignment.max() < k
    loads = np.bincount(assignment, minlength=k)
    # Balance within epsilon plus the granularity of single vertices.
    assert loads.max() <= 1.10 * graph.num_vertices / k + 1
    # The cut is never worse than the expected random cut (only a
    # meaningful bound when partitions hold more than a couple of
    # vertices each).
    if graph.num_vertices >= 6 * k:
        random_cut_expectation = graph.num_edges * (1 - 1 / k)
        assert cut_weight(wg, assignment) <= random_cut_expectation + 1
