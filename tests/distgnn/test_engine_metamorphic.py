"""Metamorphic tests: DistGNN cost accounting must move the right way
when one input grows."""

import pytest

from repro.distgnn import DistGnnEngine
from repro.partitioning import RandomEdgePartitioner


@pytest.fixture(scope="module")
def graph():
    from repro.graph import load_dataset

    return load_dataset("OR", "tiny")


def breakdown(graph, k=4, feature=32, hidden=32, layers=2):
    partition = RandomEdgePartitioner().partition(graph, k, seed=0)
    engine = DistGnnEngine(partition, feature, hidden, layers)
    return engine, engine.simulate_epoch()


def test_more_machines_more_total_traffic(graph):
    _, small = breakdown(graph, k=2)
    _, large = breakdown(graph, k=8)
    assert large.network_bytes > small.network_bytes


def test_larger_features_more_traffic_and_memory(graph):
    engine_s, small = breakdown(graph, feature=16)
    engine_l, large = breakdown(graph, feature=256)
    assert large.network_bytes > small.network_bytes
    assert engine_l.total_memory() > engine_s.total_memory()


def test_larger_hidden_more_traffic(graph):
    _, small = breakdown(graph, hidden=16)
    _, large = breakdown(graph, hidden=256)
    assert large.network_bytes > small.network_bytes


def test_more_layers_longer_epoch(graph):
    _, shallow = breakdown(graph, layers=2)
    _, deep = breakdown(graph, layers=4)
    assert deep.epoch_seconds > shallow.epoch_seconds
    assert deep.network_bytes > shallow.network_bytes


def test_epoch_additivity(graph):
    """Simulating N epochs accumulates the timeline linearly."""
    partition = RandomEdgePartitioner().partition(graph, 4, seed=0)
    engine = DistGnnEngine(partition, 32, 32, 2)
    once = engine.simulate_epoch().epoch_seconds
    engine.simulate_training(3)
    total = engine.cluster.timeline.total_seconds
    assert total == pytest.approx(4 * once)


def test_phase_summary_covers_all_layers(graph):
    partition = RandomEdgePartitioner().partition(graph, 4, seed=0)
    engine = DistGnnEngine(partition, 32, 32, 3)
    engine.simulate_epoch()
    phases = engine.cluster.timeline.phase_totals()
    for layer in range(3):
        assert f"forward-l{layer}" in phases
        assert f"backward-sync-l{layer}" in phases
    assert "gradient-allreduce" in phases
