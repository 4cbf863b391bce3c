"""Tests for the vertex-cut refinement passes used by HEP."""

import numpy as np
import pytest

from repro.partitioning import EdgePartition, replication_factor
from repro.partitioning.vertexcut.refine import ReplicaState, _distinct


def _rf(graph, edges, assignment, k):
    return replication_factor(EdgePartition(graph, edges, assignment, k))


def refine_edges(edges, assignment, edge_ids, n, k, cap, sweeps):
    state = ReplicaState(edges, assignment, edge_ids, n, k, cap)
    return state.refine_edges(sweeps=sweeps, seed=0)


def coalesce(edges, assignment, edge_ids, n, k, cap, sweeps):
    state = ReplicaState(edges, assignment, edge_ids, n, k, cap)
    return state.coalesce(sweeps=sweeps, seed=0)


@pytest.fixture
def scattered_cliques(two_cliques):
    """Clique edges deliberately scattered over 2 partitions."""
    edges = two_cliques.undirected_edges()
    rng = np.random.default_rng(0)
    return edges, rng.integers(0, 2, size=len(edges)).astype(np.int32)


def test_refine_never_worsens_rf(two_cliques, scattered_cliques):
    edges, assignment = scattered_cliques
    before = _rf(two_cliques, edges, assignment.copy(), 2)
    refine_edges(
        edges, assignment, np.arange(len(edges)),
        two_cliques.num_vertices, 2, cap=9, sweeps=3,
    )
    after = _rf(two_cliques, edges, assignment, 2)
    assert after <= before


def test_refine_respects_cap(two_cliques, scattered_cliques):
    edges, assignment = scattered_cliques
    refine_edges(
        edges, assignment, np.arange(len(edges)),
        two_cliques.num_vertices, 2, cap=8, sweeps=3,
    )
    assert np.bincount(assignment, minlength=2).max() <= 8


def test_refine_returns_move_count(two_cliques, scattered_cliques):
    edges, assignment = scattered_cliques
    moves = refine_edges(
        edges, assignment, np.arange(len(edges)),
        two_cliques.num_vertices, 2, cap=9, sweeps=3,
    )
    assert moves >= 0


def test_refine_only_touches_given_edges(two_cliques, scattered_cliques):
    edges, assignment = scattered_cliques
    frozen = assignment[:5].copy()
    refine_edges(
        edges, assignment, np.arange(5, len(edges)),
        two_cliques.num_vertices, 2, cap=13, sweeps=3,
    )
    assert np.array_equal(assignment[:5], frozen)


def test_coalesce_reduces_rf_on_split_vertex(two_cliques):
    """A vertex with edges spread over two partitions gets consolidated."""
    edges = two_cliques.undirected_edges()
    # Put vertex 0's three edges on different partitions.
    assignment = np.zeros(len(edges), dtype=np.int32)
    touching_zero = np.flatnonzero((edges == 0).any(axis=1))
    assignment[touching_zero[0]] = 1
    before = _rf(two_cliques, edges, assignment.copy(), 2)
    moved = coalesce(
        edges, assignment, np.arange(len(edges)),
        two_cliques.num_vertices, 2, cap=13, sweeps=2,
    )
    after = _rf(two_cliques, edges, assignment, 2)
    assert moved >= 1
    assert after < before


def test_coalesce_respects_cap(two_cliques, scattered_cliques):
    edges, assignment = scattered_cliques
    coalesce(
        edges, assignment, np.arange(len(edges)),
        two_cliques.num_vertices, 2, cap=8, sweeps=2,
    )
    assert np.bincount(assignment, minlength=2).max() <= 8


@pytest.mark.parametrize("size", [50, 5000])
def test_distinct_table_and_sort_paths_match_unique(size):
    """A key range within 4x the keys takes the count table, a wider one
    the sort; both must read as ``np.unique``."""
    keys = np.random.default_rng(0).integers(0, 50, size=40)
    expected = np.unique(keys, return_inverse=True, return_counts=True)
    for mine, theirs in zip(_distinct(keys, size), expected):
        assert np.array_equal(mine, theirs)
