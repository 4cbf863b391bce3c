"""Partitioning quality metrics (Section 2.1 of the paper).

Edge partitioning (vertex-cut) metrics:
  replication factor  RF(P) = (1/|V|) * sum_i |V(p_i)|
  edge balance        EB(P) = max_i |p_i| / mean_i |p_i|
  vertex balance      VB(P) = max_i |V(p_i)| / mean_i |V(p_i)|

Vertex partitioning (edge-cut) metrics:
  edge-cut ratio      lambda = |E_cut| / |E|
  vertex balance      VB(P) = max_i |p_i| / mean_i |p_i|
  training-vertex balance: same, restricted to training vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import EdgePartition, VertexPartition

__all__ = [
    "replication_factor",
    "edge_balance",
    "vertex_balance_vertex_cut",
    "edge_cut_ratio",
    "vertex_balance",
    "training_vertex_balance",
    "EdgePartitionQuality",
    "VertexPartitionQuality",
    "edge_partition_quality",
    "vertex_partition_quality",
]


def _max_over_mean(counts: np.ndarray) -> float:
    mean = counts.mean()
    if mean <= 0:
        return float("inf") if counts.max() > 0 else 1.0
    return float(counts.max() / mean)


# ----------------------------------------------------------------------
# Vertex-cut (edge partitioning) metrics
# ----------------------------------------------------------------------
def replication_factor(partition: EdgePartition) -> float:
    """Average number of partitions each (non-isolated) vertex lives on."""
    covered = np.count_nonzero(partition.copies_per_vertex())
    if covered == 0:
        return 0.0
    return float(partition.vertex_counts().sum() / covered)


def edge_balance(partition: EdgePartition) -> float:
    """max/mean of edges per partition (EB, Section 2.1)."""
    return _max_over_mean(partition.edge_counts())


def vertex_balance_vertex_cut(partition: EdgePartition) -> float:
    """max/mean of covered vertices per partition (VB for vertex-cuts)."""
    return _max_over_mean(partition.vertex_counts())


# ----------------------------------------------------------------------
# Edge-cut (vertex partitioning) metrics
# ----------------------------------------------------------------------
def edge_cut_ratio(partition: VertexPartition) -> float:
    """Fraction of undirected edges whose endpoints differ (lambda)."""
    num_edges = partition.graph.undirected_edges().shape[0]
    if num_edges == 0:
        return 0.0
    return float(partition.num_cut_edges() / num_edges)


def vertex_balance(partition: VertexPartition) -> float:
    """max/mean of vertices per partition (VB for edge-cuts)."""
    return _max_over_mean(partition.vertex_counts())


def training_vertex_balance(
    partition: VertexPartition, train_vertices: np.ndarray
) -> float:
    """max/mean of *training* vertices per partition (DistDGL load)."""
    counts = np.bincount(
        partition.assignment[np.asarray(train_vertices, dtype=np.int64)],
        minlength=partition.num_partitions,
    )
    return _max_over_mean(counts)


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgePartitionQuality:
    """Quality of a vertex-cut (edge) partition: RF and balances."""
    replication_factor: float
    edge_balance: float
    vertex_balance: float

    def as_row(self) -> str:
        """Fixed-width one-line rendering for tables."""
        return (
            f"RF={self.replication_factor:6.2f} "
            f"EB={self.edge_balance:5.2f} VB={self.vertex_balance:5.2f}"
        )


@dataclass(frozen=True)
class VertexPartitionQuality:
    """Quality of an edge-cut (vertex) partition: cut and balances."""
    edge_cut: float
    vertex_balance: float
    training_vertex_balance: float

    def as_row(self) -> str:
        """Fixed-width one-line rendering for tables."""
        return (
            f"cut={self.edge_cut:6.4f} VB={self.vertex_balance:5.2f} "
            f"trainVB={self.training_vertex_balance:5.2f}"
        )


def edge_partition_quality(partition: EdgePartition) -> EdgePartitionQuality:
    """All Section 2.1 vertex-cut metrics in one bundle, derived once
    per (immutable) partition."""
    if partition._quality is None:
        partition._quality = EdgePartitionQuality(
            replication_factor=replication_factor(partition),
            edge_balance=edge_balance(partition),
            vertex_balance=vertex_balance_vertex_cut(partition),
        )
    return partition._quality


def vertex_partition_quality(
    partition: VertexPartition, train_vertices: np.ndarray
) -> VertexPartitionQuality:
    """All Section 2.1 edge-cut metrics in one bundle."""
    return VertexPartitionQuality(
        edge_cut=edge_cut_ratio(partition),
        vertex_balance=vertex_balance(partition),
        training_vertex_balance=training_vertex_balance(
            partition, train_vertices
        ),
    )
