"""Partition validation: machine-checkable invariants.

Useful both as a public safety net for downstream users (validate before
an expensive training run) and as the oracle behind the property-based
test suite.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .assignment import EdgePartition, VertexPartition

__all__ = [
    "validate_edge_partition",
    "validate_vertex_partition",
    "PartitionValidationError",
]


class PartitionValidationError(ValueError):
    """Raised by the ``strict`` validation mode; carries all findings."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def validate_edge_partition(
    partition: EdgePartition, strict: bool = True
) -> List[str]:
    """Check a vertex-cut partition's invariants.

    Returns the list of violated invariants (empty if valid); with
    ``strict`` a non-empty list raises :class:`PartitionValidationError`.
    """
    problems: List[str] = []
    # Rows compared as sorted pair keys u * n + v (the graph's rows are
    # sorted already); an id outside [0, n) could alias another key.
    n, edges = partition.graph.num_vertices, partition.edges
    expected = partition.graph.undirected_edges()
    ids_ok = not edges.size or 0 <= edges.min() <= edges.max() < n
    if edges.shape != expected.shape or not ids_ok or not np.array_equal(
        np.sort(edges[:, 0] * n + edges[:, 1]),
        expected[:, 0] * n + expected[:, 1],
    ):
        problems.append("edge set does not match the graph's edges")
    if partition.assignment.shape[0] != partition.edges.shape[0]:
        problems.append("assignment length differs from edge count")
    in_range = not partition.assignment.size or (
        partition.assignment.min() >= 0
        and partition.assignment.max() < partition.num_partitions
    )
    if not in_range:
        problems.append("assignment value outside [0, k)")
    if in_range and not problems:
        # Derived checks only make sense on structurally sound input.
        if partition.edge_counts().sum() != partition.num_edges:
            problems.append("edge counts do not sum to |E|")
        copies = partition.copies_per_vertex()
        degrees = partition.graph.degrees()
        limit = np.minimum(np.maximum(degrees, 1), partition.num_partitions)
        if (copies > limit).any():
            problems.append("a vertex is replicated beyond min(degree, k)")
        if (copies[degrees > 0] < 1).any():
            problems.append("a non-isolated vertex has no replica")
    if strict and problems:
        raise PartitionValidationError(problems)
    return problems


def validate_vertex_partition(
    partition: VertexPartition, strict: bool = True
) -> List[str]:
    """Check an edge-cut partition's invariants (see above for modes)."""
    problems: List[str] = []
    if partition.assignment.shape != (partition.graph.num_vertices,):
        problems.append("assignment must cover every vertex exactly once")
    in_range = not partition.assignment.size or (
        partition.assignment.min() >= 0
        and partition.assignment.max() < partition.num_partitions
    )
    if not in_range:
        problems.append("assignment value outside [0, k)")
    if in_range and not problems:
        if partition.vertex_counts().sum() != partition.graph.num_vertices:
            problems.append("vertex counts do not sum to |V|")
        cut = partition.num_cut_edges()
        local = int(partition.local_edge_counts().sum())
        total = partition.graph.undirected_edges().shape[0]
        if cut + local != total:
            problems.append(
                "cut + local edges do not account for every edge"
            )
    if strict and problems:
        raise PartitionValidationError(problems)
    return problems
