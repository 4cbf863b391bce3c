"""Bit-identity of the in-memory partitioning kernels against their oracles.

PR 14 rewrote the sequential-greedy inner loops of KaHIP/METIS
(``multilevel.refine`` and friends) and HEP/NE (``refine_edge_assignment``,
``coalesce_vertex_moves``, ``neighborhood_expansion``) plus
``EdgePartition.replica_pairs`` for speed. **Bit-identity is that PR's
contract**: same assignment, same returned move count and same consumption
of the shared random stream as the loop bodies that stood before, which
live verbatim in :mod:`tests.oracles.multilevel` and
:mod:`tests.oracles.vertexcut`.

A later rewrite that changes the *quality contract* instead — bucketed
gain queues, a different tie-break, another visiting order — must
**replace** these oracles and this matrix with its own reference and
quality bounds, not sit beside them: there is one reference per kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, powerlaw_cluster_graph
from repro.partitioning import (
    EdgePartition,
    HepPartitioner,
    KahipPartitioner,
    MetisPartitioner,
    NePartitioner,
)
from repro.partitioning.edgecut import multilevel
from repro.partitioning.extensions import ne
from repro.partitioning.vertexcut import hep, refine

from . import multilevel as old_multilevel
from . import vertexcut as old_vertexcut

MULTILEVEL_KERNELS = ("coarsen", "initial_partition", "rebalance", "refine")


def _or_like(n: int, m: int, seed: int) -> Graph:
    return powerlaw_cluster_graph(
        num_vertices=n, edges_per_vertex=m, triangle_prob=0.35,
        community_mean_size=45, seed=seed, name="OR",
    )


def _graphs():
    small = _or_like(150, 5, seed=3).edges
    yield "or-like", _or_like(1500, 14, seed=0)
    yield "star", Graph(200, [(0, i) for i in range(1, 200)])
    yield "two-components", Graph(300, np.concatenate([small, small + 150]))
    yield "isolated-vertices", Graph(260, small)
    loops = [(v, v) for v in (0, 5, 17, 149, 151)]  # 151 has no other edge
    yield "self-loops", Graph(152, np.concatenate([small, loops]))
    yield "k-exceeds-n", Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


GRAPHS = dict(_graphs())
PARTITIONERS = {
    "kahip": KahipPartitioner,
    "metis": MetisPartitioner,
    "hep10": lambda: HepPartitioner(tau=10.0),
    "hep100": lambda: HepPartitioner(tau=100.0),
    "ne": NePartitioner,
}


@pytest.fixture
def oracle_kernels(monkeypatch):
    """Swap every rewritten kernel for its pre-PR body."""

    def install():
        for name in MULTILEVEL_KERNELS:
            monkeypatch.setattr(multilevel, name, getattr(old_multilevel, name))
        for module in (hep, ne):
            monkeypatch.setattr(
                module, "neighborhood_expansion",
                old_vertexcut._neighborhood_expansion,
            )
            for name in ("refine_edge_assignment", "coalesce_vertex_moves"):
                monkeypatch.setattr(module, name, getattr(old_vertexcut, name))

    return install


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 8, 32])
@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("name", list(PARTITIONERS))
def test_partitioner_matches_oracle(name, graph_name, k, seed, oracle_kernels):
    graph = GRAPHS[graph_name]
    new = PARTITIONERS[name]().partition(graph, k, seed=seed)
    oracle_kernels()
    old = PARTITIONERS[name]().partition(graph, k, seed=seed)
    assert new.assignment.dtype == old.assignment.dtype
    assert np.array_equal(new.assignment, old.assignment)
    if isinstance(new, EdgePartition):
        pairs = new.replica_pairs()
        reference = old_vertexcut.replica_pairs(old)
        assert pairs.dtype == reference.dtype
        assert pairs.flags.c_contiguous
        assert np.array_equal(pairs, reference)


# ----------------------------------------------------------------------
# Function level: small random weighted graphs, shared random stream
# ----------------------------------------------------------------------
@st.composite
def weighted_graphs(draw):
    """Small weighted graphs with parallel edges, loops and isolates."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    m = draw(st.integers(0, 4 * n))
    edges = rng.integers(0, n, size=(m, 2))
    return multilevel.WeightedGraph.from_weighted_edges(
        n, edges, rng.integers(1, 6, size=m), rng.integers(1, 5, size=n)
    )


def _same_stream(one: np.random.Generator, other: np.random.Generator):
    return one.integers(1 << 62) == other.integers(1 << 62)


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(), k=st.integers(1, 6), seed=st.integers(0, 99),
       passes=st.integers(0, 4), slack=st.floats(0.0, 0.5))
def test_refine_and_rebalance_match_oracle(graph, k, seed, passes, slack):
    start = np.random.default_rng(seed).integers(
        0, k, size=graph.num_vertices
    ).astype(np.int32)
    max_load = (1.0 + slack) * graph.total_vertex_weight / k
    for kernel in ("rebalance", "refine"):
        args = (k, max_load) + ((passes,) if kernel == "refine" else ())
        new, old = start.copy(), start.copy()
        new_rng, old_rng = (np.random.default_rng(seed) for _ in range(2))
        moved = getattr(multilevel, kernel)(graph, new, *args, new_rng)
        expected = getattr(old_multilevel, kernel)(graph, old, *args, old_rng)
        assert moved == expected
        assert np.array_equal(new, old)
        assert _same_stream(new_rng, old_rng)
        start = new  # refine what rebalance produced, as the driver does


@settings(max_examples=60, deadline=None)
@given(graph=weighted_graphs(), k=st.integers(1, 6), seed=st.integers(0, 99))
def test_coarsen_and_initial_partition_match_oracle(graph, k, seed):
    new_rng, old_rng = (np.random.default_rng(seed) for _ in range(2))
    coarse, mapping = multilevel.coarsen(graph, new_rng)
    reference, old_mapping = old_multilevel.coarsen(graph, old_rng)
    assert np.array_equal(mapping, old_mapping)
    for field in ("indptr", "indices", "eweights", "vweights"):
        mine, theirs = getattr(coarse, field), getattr(reference, field)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert _same_stream(new_rng, old_rng)
    assert np.array_equal(
        multilevel.initial_partition(coarse, k, new_rng),
        old_multilevel.initial_partition(reference, k, old_rng),
    )
    assert _same_stream(new_rng, old_rng)


@st.composite
def scattered_edges(draw):
    """Canonical edges (loops allowed), a random assignment, a subset."""
    n = draw(st.integers(2, 30))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    edges = np.unique(
        np.sort(rng.integers(0, n, size=(draw(st.integers(0, 5 * n)), 2))),
        axis=0,
    )
    m = edges.shape[0]
    assignment = rng.integers(0, k, size=m).astype(np.int32)
    edge_ids = np.flatnonzero(rng.random(m) < draw(st.floats(0.3, 1.0)))
    loads = np.bincount(assignment[edge_ids], minlength=k)
    cap = int(loads.max(initial=0)) + draw(st.integers(0, 3))
    return n, k, edges, assignment, edge_ids, cap


@settings(max_examples=80, deadline=None)
@given(case=scattered_edges(), seed=st.integers(0, 99),
       sweeps=st.integers(0, 3))
def test_edge_refiners_match_oracle(case, seed, sweeps):
    n, k, edges, start, edge_ids, cap = case
    for kernel in ("refine_edge_assignment", "coalesce_vertex_moves"):
        new, old = start.copy(), start.copy()
        moved = getattr(refine, kernel)(
            edges, new, edge_ids, n, k, cap, sweeps=sweeps, seed=seed
        )
        expected = getattr(old_vertexcut, kernel)(
            edges, old, edge_ids, n, k, cap, sweeps=sweeps, seed=seed
        )
        assert moved == expected
        assert np.array_equal(new, old)
        start = new


@settings(max_examples=80, deadline=None)
@given(case=scattered_edges())
def test_neighborhood_expansion_matches_oracle(case):
    n, k, edges, _, low_ids, cap = case
    degrees = np.bincount(edges.ravel(), minlength=n)
    new = np.full(edges.shape[0], -1, dtype=np.int32)
    old = new.copy()
    left = hep.neighborhood_expansion(n, edges, low_ids, new, k, cap, degrees)
    expected = old_vertexcut._neighborhood_expansion(
        n, edges, low_ids, old, k, cap, degrees
    )
    assert np.array_equal(left, expected)
    assert np.array_equal(new, old)
