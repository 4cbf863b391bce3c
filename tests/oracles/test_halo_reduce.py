"""DistGNN's priced halo traffic against an executed partial-aggregate
reduce (:mod:`tests.oracles.halo`).

The engine derives every layer's halo-sync matrices from
``EdgePartition.replica_stats``; the oracle moves real rows between
machines and counts them. Per layer, the forward sync carries
``dims[l]``-wide partial aggregates to the masters and ``dims[l + 1]``
-wide results back, and the backward sync is its adjoint, the forward
matrix transposed. Both must equal the engine's books exactly, and the
reduce must equal the centralized aggregate, so the two derivations
meet on the same messages.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.distgnn import DistGnnEngine
from repro.graph import load_dataset
from repro.partitioning import EDGE_PARTITIONER_NAMES, make_edge_partitioner

from .halo import halo_reduce

GRAPH = load_dataset("OR", scale="tiny")
EPOCHS = 4


@pytest.fixture(
    scope="module",
    params=[(name, k) for name in EDGE_PARTITIONER_NAMES for k in (4, 16)],
    ids=lambda case: f"{case[0]}-k{case[1]}",
)
def exchanged(request):
    name, k = request.param
    partition = make_edge_partitioner(name).partition(GRAPH, k, seed=0)
    # Integer-valued states: every sum is exact in any order.
    states = np.random.default_rng(k).integers(
        -8, 9, (GRAPH.num_vertices, 5)
    ).astype(np.float64)
    return partition, states, halo_reduce(partition, states)


def engine_for(partition, **kwargs) -> DistGnnEngine:
    # dims 24 -> 16 -> 16 -> 10: unequal widths catch a swapped side.
    return DistGnnEngine(partition, 24, 16, 3, num_classes=10, **kwargs)


def oracle_forward(engine, push, bcast) -> list:
    """Per layer, the forward sync's ``src x dst`` bytes from the
    oracle's row counts."""
    dims, width = engine.dims, engine.cost_model.float_bytes
    return [
        push * dims[layer] * width + bcast * dims[layer + 1] * width
        for layer in range(engine.num_layers)
    ]


def test_reduce_equals_centralized_aggregate(exchanged):
    _, states, (views, held, _, _) = exchanged
    edges = GRAPH.undirected_edges()
    central = np.zeros_like(states)
    np.add.at(central, edges[:, 0], states[edges[:, 1]])
    np.add.at(central, edges[:, 1], states[edges[:, 0]])
    np.testing.assert_array_equal(
        views, np.where(held[..., np.newaxis], central, 0.0)
    )
    degrees = np.bincount(edges.ravel(), minlength=GRAPH.num_vertices)
    np.testing.assert_array_equal(held.any(axis=0), degrees > 0)


def test_priced_halo_traffic_equals_moved_rows(exchanged):
    partition, _, (_, _, push, bcast) = exchanged
    engine = engine_for(partition)
    matrices = engine._layer_costs[3]
    for layer, forward in enumerate(oracle_forward(engine, push, bcast)):
        np.testing.assert_array_equal(matrices[layer, 0], forward)
        np.testing.assert_array_equal(matrices[layer, 1], forward.T)


@pytest.mark.parametrize("refresh_interval", [1, 2, 3])
def test_cd_r_syncs_every_rth_epoch(exchanged, refresh_interval):
    partition, _, (_, _, push, bcast) = exchanged
    engine = engine_for(partition, refresh_interval=refresh_interval)
    engine.simulate_training(EPOCHS)
    syncs = {
        phase: matrix
        for phase, matrix in engine.cluster.fabric.traffic_matrix_phases()
        .items()
        if "-sync-l" in phase
    }
    fresh = math.ceil(EPOCHS / refresh_interval)
    expected = {}
    for layer, forward in enumerate(oracle_forward(engine, push, bcast)):
        expected[f"forward-sync-l{layer}"] = fresh * forward
        expected[f"backward-sync-l{layer}"] = fresh * forward.T
    assert syncs.keys() == expected.keys()
    for phase, matrix in expected.items():
        np.testing.assert_array_equal(syncs[phase], matrix, err_msg=phase)
