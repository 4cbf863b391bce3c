"""Property-based tests: partitioning invariants hold on arbitrary graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph
from repro.partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    EdgePartition,
    FennelPartitioner,
    NePartitioner,
    RestreamingLdgPartitioner,
    VertexPartition,
    edge_balance,
    edge_cut_ratio,
    make_edge_partitioner,
    make_vertex_partitioner,
    replication_factor,
    vertex_balance,
)

#: The study's twelve plus the three extensions.
EDGE_PARTITIONERS = [
    make_edge_partitioner(name) for name in EDGE_PARTITIONER_NAMES
] + [NePartitioner()]
VERTEX_PARTITIONERS = [
    make_vertex_partitioner(name) for name in VERTEX_PARTITIONER_NAMES
] + [
    FennelPartitioner(),
    RestreamingLdgPartitioner(),
]


@st.composite
def random_graphs(draw):
    """Random graphs of 1..65 vertices and at least one edge.

    Rows may repeat and self-loop; an optional chain connects a prefix
    of the vertices, and up to five trailing vertices touch no edge.
    """
    n = draw(st.integers(min_value=1, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    extra_count = draw(st.integers(min_value=1, max_value=4 * n))
    rows = [rng.integers(0, n, size=(extra_count, 2))]
    if draw(st.booleans()):
        span = draw(st.integers(min_value=1, max_value=n))
        chain = np.stack([np.arange(span - 1), np.arange(1, span)], axis=1)
        rows.append(chain)
    isolated = draw(st.integers(min_value=0, max_value=5))
    return Graph(n + isolated, np.concatenate(rows))


@st.composite
def graph_and_k(draw):
    graph = draw(random_graphs())
    k = draw(st.integers(min_value=1, max_value=9))  # may exceed |V|
    return graph, k


@settings(max_examples=25, deadline=None)
@given(case=graph_and_k())
@pytest.mark.parametrize(
    "partitioner", EDGE_PARTITIONERS, ids=lambda p: p.name
)
def test_edge_partitioner_invariants(partitioner, case):
    graph, k = case
    part = partitioner.partition(graph, k, seed=0)
    edges = graph.undirected_edges()
    # Every edge assigned to exactly one valid partition.
    assert part.assignment.shape[0] == edges.shape[0]
    assert (part.assignment >= 0).all() and (part.assignment < k).all()
    # RF bounds: 1 <= RF <= min(k, max degree).
    rf = replication_factor(part)
    assert 1.0 <= rf <= k + 1e-9
    # Vertex copies bounded by min(degree, k).
    copies = part.copies_per_vertex()
    degrees = graph.degrees()
    assert (copies <= np.minimum(np.maximum(degrees, 1), k)).all()
    # Edge counts sum to |E|.
    assert part.edge_counts().sum() == edges.shape[0]
    # Replica union covers exactly the non-isolated vertices.
    covered = np.count_nonzero(copies)
    assert covered == np.count_nonzero(degrees)
    assert edge_balance(part) >= 1.0


@settings(max_examples=25, deadline=None)
@given(case=graph_and_k())
@pytest.mark.parametrize(
    "partitioner", VERTEX_PARTITIONERS, ids=lambda p: p.name
)
def test_vertex_partitioner_invariants(partitioner, case):
    graph, k = case
    part = partitioner.partition(graph, k, seed=0)
    # Every vertex assigned to exactly one valid partition.
    assert part.assignment.shape == (graph.num_vertices,)
    assert (part.assignment >= 0).all() and (part.assignment < k).all()
    # Counts sum to |V|; cut ratio within [0, 1].
    assert part.vertex_counts().sum() == graph.num_vertices
    assert 0.0 <= edge_cut_ratio(part) <= 1.0
    assert vertex_balance(part) >= 1.0
    # Local + cut edges account for every edge.
    cut = part.num_cut_edges()
    local = part.local_edge_counts().sum()
    assert cut + local == graph.undirected_edges().shape[0]


@settings(max_examples=30, deadline=None)
@given(case=graph_and_k(), seed=st.integers(min_value=0, max_value=100))
def test_masters_are_replicas(case, seed):
    """A vertex's master must be a partition it is actually replicated on."""
    graph, k = case
    rng = np.random.default_rng(seed)
    edges = graph.undirected_edges()
    assignment = rng.integers(0, k, size=edges.shape[0]).astype(np.int32)
    part = EdgePartition(graph, edges, assignment, k)
    masters = part.masters()
    copies = part.copies_per_vertex()
    pairs = set(map(tuple, part.replica_pairs().tolist()))
    for v in range(graph.num_vertices):
        if copies[v] > 0:
            assert (int(masters[v]), v) in pairs


@settings(max_examples=30, deadline=None)
@given(case=graph_and_k(), seed=st.integers(min_value=0, max_value=100))
def test_cut_mask_consistent(case, seed):
    graph, k = case
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, size=graph.num_vertices).astype(np.int32)
    part = VertexPartition(graph, assignment, k)
    edges = graph.undirected_edges()
    mask = part.cut_mask()
    recomputed = assignment[edges[:, 0]] != assignment[edges[:, 1]]
    assert np.array_equal(mask, recomputed)
