"""Property-based consistency checks on the cost engines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import DEFAULT_COST_MODEL
from repro.distgnn import DistGnnEngine
from repro.graph import Graph
from repro.partitioning import EdgePartition


@st.composite
def partitioned_graphs(draw):
    n = draw(st.integers(min_value=10, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    k = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(seed)
    chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    extras = rng.integers(0, n, size=(2 * n, 2))
    extras = extras[extras[:, 0] != extras[:, 1]]
    graph = Graph(n, np.concatenate([chain, extras]))
    edges = graph.undirected_edges()
    assignment = rng.integers(0, k, size=edges.shape[0]).astype(np.int32)
    return EdgePartition(graph, edges, assignment, k)


@settings(max_examples=20, deadline=None)
@given(
    partition=partitioned_graphs(),
    feature=st.sampled_from([8, 32]),
    hidden=st.sampled_from([8, 32]),
    layers=st.integers(min_value=1, max_value=3),
)
def test_distgnn_traffic_matches_replication_formula(
    partition, feature, hidden, layers
):
    """Halo traffic must equal the analytic replication formula:
    2 * sum_l sum_v (copies(v)-1) * (d_in_l + d_out_l) * 4B
    plus the gradient all-reduce volume."""
    engine = DistGnnEngine(partition, feature, hidden, layers)
    breakdown = engine.simulate_epoch()
    copies = partition.copies_per_vertex()
    excess = np.maximum(copies - 1, 0).sum()
    dims = engine.dims
    halo = sum(
        2.0 * excess * (dims[i] + dims[i + 1]) * 4
        for i in range(layers)
    )
    grad = (
        2.0
        * engine.num_params
        * DEFAULT_COST_MODEL.float_bytes
        * max(partition.num_partitions - 1, 0)
    )
    assert breakdown.network_bytes == np.float64(halo + grad)


@settings(max_examples=20, deadline=None)
@given(partition=partitioned_graphs())
def test_distgnn_memory_decomposition(partition):
    """Per-machine memory must equal the sum of its ledger categories,
    and features must scale exactly linearly in the feature size."""
    small = DistGnnEngine(partition, 8, 16, 2)
    large = DistGnnEngine(partition, 16, 16, 2)
    for engine in (small, large):
        memory = engine.cluster.memory
        for machine in range(partition.num_partitions):
            assert memory.total[machine] == sum(
                memory.by_category(machine).values()
            )
    for machine in range(partition.num_partitions):
        small_features = small.cluster.memory.by_category(machine)["features"]
        delta = (
            large.cluster.memory.by_category(machine)["features"]
            - small_features
        )
        assert delta == small_features


@settings(max_examples=15, deadline=None)
@given(partition=partitioned_graphs())
def test_distgnn_single_machine_no_traffic(partition):
    """Collapsing the partition onto one machine removes all halo and
    all-reduce traffic."""
    single = EdgePartition(
        partition.graph,
        partition.edges,
        np.zeros_like(partition.assignment),
        1,
    )
    engine = DistGnnEngine(single, 16, 16, 2)
    assert engine.simulate_epoch().network_bytes == 0.0
