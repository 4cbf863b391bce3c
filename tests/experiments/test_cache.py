"""Tests for the partition cache."""

import pytest

from repro.experiments import (
    CacheEntryError,
    cache_size,
    cached_edge_partition,
    cached_vertex_partition,
    clear_cache,
)
from repro.experiments import cache as cache_module
from repro.graph import Graph


def test_edge_cache_hit_returns_same_object(tiny_or):
    clear_cache()
    a, seconds_a = cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    b, seconds_b = cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    assert a is b
    assert seconds_a == seconds_b


def test_different_k_different_entry(tiny_or):
    clear_cache()
    a, _ = cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    b, _ = cached_edge_partition(tiny_or, "dbh", 8, seed=0)
    assert a is not b
    assert b.num_partitions == 8


def test_vertex_cache(tiny_or):
    clear_cache()
    a, seconds = cached_vertex_partition(tiny_or, "ldg", 4, seed=0)
    b, _ = cached_vertex_partition(tiny_or, "ldg", 4, seed=0)
    assert a is b
    assert seconds > 0


def test_clear_cache(tiny_or):
    a, _ = cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    clear_cache()
    b, _ = cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    assert a is not b


def test_name_case_insensitive(tiny_or):
    clear_cache()
    a, _ = cached_edge_partition(tiny_or, "DBH", 4, seed=0)
    b, _ = cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    assert a is b


def test_keyed_by_content_not_identity():
    """Two distinct Graph objects with identical content share an entry;
    a graph with different edges gets its own — id() recycling after
    garbage collection can no longer alias cache slots."""
    clear_cache()
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    g1 = Graph(4, edges)
    g2 = Graph(4, edges)
    a, _ = cached_edge_partition(g1, "dbh", 2, seed=0)
    b, _ = cached_edge_partition(g2, "dbh", 2, seed=0)
    assert g1 is not g2
    assert a is b

    g3 = Graph(4, edges[:-1])
    c, _ = cached_edge_partition(g3, "dbh", 2, seed=0)
    assert c is not a


@pytest.fixture
def capacity_two(monkeypatch):
    monkeypatch.setattr(cache_module, "CACHE_CAPACITY", 2)
    clear_cache()
    yield
    clear_cache()


def test_lru_evicts_oldest(tiny_or, capacity_two):
    a, _ = cached_edge_partition(tiny_or, "dbh", 2, seed=0)
    cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    cached_edge_partition(tiny_or, "dbh", 8, seed=0)  # evicts k=2
    assert cache_size() == 2
    a2, _ = cached_edge_partition(tiny_or, "dbh", 2, seed=0)  # recompute
    assert a2 is not a


def test_lru_hit_refreshes_recency(tiny_or, capacity_two):
    a, _ = cached_edge_partition(tiny_or, "dbh", 2, seed=0)
    cached_edge_partition(tiny_or, "dbh", 4, seed=0)
    cached_edge_partition(tiny_or, "dbh", 2, seed=0)  # refresh k=2
    cached_edge_partition(tiny_or, "dbh", 8, seed=0)  # evicts k=4, not k=2
    a2, _ = cached_edge_partition(tiny_or, "dbh", 2, seed=0)
    assert a2 is a


def test_wrong_family_entry_raises_real_exception(tiny_or):
    """Corrupt entries raise CacheEntryError — a real exception that
    survives ``python -O``, unlike the bare asserts it replaced."""
    clear_cache()
    partition, _ = cached_vertex_partition(tiny_or, "ldg", 2, seed=0)
    bad_key = cache_module._key("edge", "dbh", tiny_or, 2, 0)
    cache_module._CACHE[bad_key] = (partition, 0.0)
    try:
        with pytest.raises(CacheEntryError):
            cached_edge_partition(tiny_or, "dbh", 2, seed=0)
    finally:
        clear_cache()


def test_fingerprint_stable_and_content_sensitive():
    edges = [(0, 1), (1, 2)]
    g1 = Graph(3, edges)
    g2 = Graph(3, edges)
    assert g1.fingerprint() == g1.fingerprint()
    assert g1.fingerprint() == g2.fingerprint()
    bigger = Graph(4, edges)
    directed = Graph(3, edges, directed=True)
    assert bigger.fingerprint() != g1.fingerprint()
    assert directed.fingerprint() != g1.fingerprint()
