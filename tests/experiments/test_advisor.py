"""Tests for the partitioner selection advisor."""

import pytest

from repro.experiments import (
    TrainingParams,
    recommend_edge_partitioner,
)


@pytest.fixture(scope="module")
def graph():
    from repro.graph import load_dataset

    return load_dataset("OR", "tiny")


def test_recommendation_structure(graph):
    rec = recommend_edge_partitioner(
        graph, 4, planned_epochs=50, seed=0,
        candidates=("random", "dbh", "hep100"),
    )
    assert rec.best in ("random", "dbh", "hep100")
    assert len(rec.estimates) == 3
    for estimate in rec.estimates:
        assert estimate.epoch_seconds > 0
        assert estimate.total_seconds >= estimate.partitioning_seconds


def test_random_has_free_partitioning(graph):
    rec = recommend_edge_partitioner(
        graph, 4, planned_epochs=10, candidates=("random", "hdrf")
    )
    by_name = {e.name: e for e in rec.estimates}
    assert by_name["random"].partitioning_seconds == 0.0
    assert by_name["hdrf"].partitioning_seconds > 0.0


def test_many_epochs_prefer_quality(graph):
    """With enough planned epochs, a quality partitioner must win over
    Random (its per-epoch saving dominates the investment)."""
    rec = recommend_edge_partitioner(
        graph, 8, planned_epochs=100_000,
        candidates=("random", "hep100"), sample_fraction=0.5,
    )
    assert rec.best == "hep100"


def test_epoch_ranking_follows_quality(graph):
    rec = recommend_edge_partitioner(
        graph, 8, planned_epochs=10,
        candidates=("random", "hep100"), sample_fraction=0.5,
    )
    by_name = {e.name: e for e in rec.estimates}
    assert (
        by_name["hep100"].epoch_seconds < by_name["random"].epoch_seconds
    )
    assert (
        by_name["hep100"].replication_factor
        < by_name["random"].replication_factor
    )


def test_custom_params_respected(graph):
    slim = recommend_edge_partitioner(
        graph, 4, planned_epochs=10,
        params=TrainingParams(feature_size=16, hidden_dim=16, num_layers=2),
        candidates=("random",),
    )
    heavy = recommend_edge_partitioner(
        graph, 4, planned_epochs=10,
        params=TrainingParams(feature_size=512, hidden_dim=512, num_layers=4),
        candidates=("random",),
    )
    assert (
        heavy.estimates[0].epoch_seconds > slim.estimates[0].epoch_seconds
    )


def test_validation(graph):
    with pytest.raises(ValueError):
        recommend_edge_partitioner(graph, 4, planned_epochs=0)
    with pytest.raises(ValueError):
        recommend_edge_partitioner(graph, 4, 10, sample_fraction=0.0)
