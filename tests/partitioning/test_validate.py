"""Tests for partition validation."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.partitioning import (
    EdgePartition,
    PartitionValidationError,
    VertexPartition,
    validate_edge_partition,
    validate_vertex_partition,
)


@pytest.fixture
def good_edge_partition(tiny_or):
    edges = tiny_or.undirected_edges()
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, 4, size=len(edges)).astype(np.int32)
    return EdgePartition(tiny_or, edges, assignment, 4)


@pytest.fixture
def good_vertex_partition(tiny_or):
    rng = np.random.default_rng(0)
    assignment = rng.integers(
        0, 4, size=tiny_or.num_vertices
    ).astype(np.int32)
    return VertexPartition(tiny_or, assignment, 4)


def test_valid_edge_partition_passes(good_edge_partition):
    assert validate_edge_partition(good_edge_partition) == []


def test_valid_vertex_partition_passes(good_vertex_partition):
    assert validate_vertex_partition(good_vertex_partition) == []


def test_tampered_edge_set_detected(tiny_or, good_edge_partition):
    # Swap in a different edge array of the same shape.
    part = good_edge_partition
    tampered = part.edges.copy()
    tampered[0] = [0, 1] if (tampered[0] != [0, 1]).any() else [0, 2]
    bad = EdgePartition.__new__(EdgePartition)
    bad.__dict__.update(part.__dict__)
    bad.edges = tampered
    problems = validate_edge_partition(bad, strict=False)
    # Either the edge-set mismatch or a derived invariant must trip.
    assert problems or np.array_equal(
        np.unique(tampered, axis=0), np.unique(part.edges, axis=0)
    )


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 2), (1, 3)],  # each column matches the graph's on its own
        [(0, 3), (0, 3)],  # a repeated row hides a missing one
        [(0, 3), (2, 1)],  # a row outside canonical lo <= hi order
        [(0, 3), (2, -3)],  # a negative id aliasing (1, 2)'s pair key
    ],
)
def test_wrong_edge_set_of_right_size_detected(rows):
    graph = Graph(4, [(0, 3), (1, 2)])
    part = EdgePartition(graph, np.array(rows), np.zeros(2, np.int32), 2)
    problems = validate_edge_partition(part, strict=False)
    assert "edge set does not match the graph's edges" in problems


def test_tampered_assignment_detected(good_edge_partition):
    part = good_edge_partition
    part.assignment[0] = 99  # bypass constructor validation
    with pytest.raises(PartitionValidationError) as err:
        validate_edge_partition(part)
    assert any("outside" in p for p in err.value.problems)


def test_vertex_partition_tamper_detected(good_vertex_partition):
    part = good_vertex_partition
    part.assignment[0] = -3
    problems = validate_vertex_partition(part, strict=False)
    assert problems


def test_strict_flag(good_vertex_partition):
    part = good_vertex_partition
    part.assignment[0] = 77
    assert validate_vertex_partition(part, strict=False)
    with pytest.raises(PartitionValidationError):
        validate_vertex_partition(part, strict=True)


def test_real_partitioner_outputs_validate(tiny_or):
    from repro.partitioning import (
        EDGE_PARTITIONER_NAMES,
        VERTEX_PARTITIONER_NAMES,
        make_edge_partitioner,
        make_vertex_partitioner,
    )

    for name in EDGE_PARTITIONER_NAMES:
        partitioner = make_edge_partitioner(name)
        part = partitioner.partition(tiny_or, 3, seed=0)
        assert validate_edge_partition(part) == [], partitioner.name
    for name in VERTEX_PARTITIONER_NAMES:
        partitioner = make_vertex_partitioner(name)
        part = partitioner.partition(tiny_or, 3, seed=0)
        assert validate_vertex_partition(part) == [], partitioner.name
