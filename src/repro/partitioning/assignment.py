"""Partition assignment containers.

Two result types mirror the paper's two partitioning families:

* :class:`EdgePartition` (vertex-cut): every *edge* belongs to exactly one
  partition; vertices touching edges in several partitions are *replicated*.
* :class:`VertexPartition` (edge-cut): every *vertex* belongs to exactly one
  partition; edges whose endpoints differ are *cut*.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from ..graph import Graph, sorted_unique

__all__ = ["EdgePartition", "VertexPartition", "ReplicaStats"]


class ReplicaStats(NamedTuple):
    """Per-machine replica tallies of an edge partition (read-only
    float64 arrays): what DistGNN's compute, memory and sync phases are
    functions of, whatever the model trained on it.

    ``pair_counts[i, j]`` counts the non-master replicas on machine
    ``i`` whose master lives on machine ``j``: row sums equal
    ``nonmasters``, column sums ``master_excess`` (per machine, the
    sync counterparties of the masters it hosts) — the basis of the
    ``src x dst`` traffic matrices.
    """

    edges: np.ndarray
    vertices: np.ndarray
    masters: np.ndarray
    nonmasters: np.ndarray
    master_excess: np.ndarray
    pair_counts: np.ndarray


class EdgePartition:
    """Result of edge partitioning (vertex-cut).

    Parameters
    ----------
    graph:
        The partitioned graph.
    edges:
        ``(m, 2)`` canonical undirected edges, in the order matched by
        ``assignment`` (normally ``graph.undirected_edges()``).
    assignment:
        ``(m,)`` partition id per edge, values in ``[0, num_partitions)``.
    num_partitions:
        Number of partitions ``k``.
    """

    def __init__(
        self,
        graph: Graph,
        edges: np.ndarray,
        assignment: np.ndarray,
        num_partitions: int,
    ) -> None:
        edges = np.asarray(edges, dtype=np.int64)
        assignment = np.asarray(assignment, dtype=np.int32)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be (m, 2)")
        if assignment.shape[0] != edges.shape[0]:
            raise ValueError("assignment length must equal number of edges")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= num_partitions
        ):
            raise ValueError("assignment value out of range")
        self.graph = graph
        self.edges = edges
        self.assignment = assignment
        self.num_partitions = int(num_partitions)
        self._replica_pairs: np.ndarray | None = None
        self._replica_stats: ReplicaStats | None = None
        #: Memo of :func:`~repro.partitioning.edge_partition_quality`.
        self._quality = None

    @property
    def num_edges(self) -> int:
        """Number of assigned edges."""
        return int(self.edges.shape[0])

    def edge_counts(self) -> np.ndarray:
        """Edges per partition, shape ``(k,)``."""
        return np.bincount(self.assignment, minlength=self.num_partitions)

    def replica_pairs(self) -> np.ndarray:
        """Unique ``(partition, vertex)`` pairs — one row per vertex replica."""
        if self._replica_pairs is None:
            # One scalar key per pair sorts far faster than (m, 2) rows.
            n = max(self.graph.num_vertices, 1)
            part = np.concatenate([self.assignment, self.assignment])
            vert = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
            keys = sorted_unique(part.astype(np.int64) * n + vert)
            self._replica_pairs = np.stack(np.divmod(keys, n), axis=1)
        return self._replica_pairs

    def replica_stats(self) -> ReplicaStats:
        """The partition's :class:`ReplicaStats`, derived once."""
        if self._replica_stats is None:
            k = self.num_partitions
            masters = self.masters()
            pairs = self.replica_pairs()
            is_master = masters[pairs[:, 1]] == pairs[:, 0]
            nonmaster_pairs = pairs[~is_master]
            excess = (self.copies_per_vertex()[pairs[:, 1]] - 1) * is_master
            stats = ReplicaStats(
                edges=self.edge_counts(),
                vertices=self.vertex_counts(),
                masters=np.bincount(masters, minlength=k),
                nonmasters=np.bincount(nonmaster_pairs[:, 0], minlength=k),
                master_excess=np.bincount(
                    pairs[:, 0], weights=excess, minlength=k
                ),
                pair_counts=np.bincount(
                    nonmaster_pairs[:, 0] * k + masters[nonmaster_pairs[:, 1]],
                    minlength=k * k,
                ).reshape(k, k),
            )
            stats = ReplicaStats(*(a.astype(np.float64) for a in stats))
            for array in stats:
                array.setflags(write=False)
            self._replica_stats = stats
        return self._replica_stats

    def vertex_counts(self) -> np.ndarray:
        """Number of covered vertices per partition, shape ``(k,)``."""
        pairs = self.replica_pairs()
        return np.bincount(
            pairs[:, 0].astype(np.int32), minlength=self.num_partitions
        )

    def copies_per_vertex(self) -> np.ndarray:
        """Number of partitions each vertex is replicated to, shape ``(n,)``.

        Vertices touching no edge have zero copies.
        """
        pairs = self.replica_pairs()
        return np.bincount(pairs[:, 1], minlength=self.graph.num_vertices)

    def masters(self) -> np.ndarray:
        """Master partition per vertex: the replica holding most of its edges.

        Vertices with no edges get master ``vertex_id % k`` so every vertex
        has an owner (DistGNN assigns each vertex's learnable state to one
        machine).
        """
        n, k = self.graph.num_vertices, self.num_partitions
        if n * k > 50_000_000:
            raise MemoryError("graph too large for dense master computation")
        endpoints = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        parts = np.concatenate([self.assignment, self.assignment])
        counts = np.bincount(endpoints * k + parts, minlength=n * k)
        counts = counts.reshape(n, k)
        owners = counts.argmax(axis=1)
        isolated = counts.sum(axis=1) == 0
        owners[isolated] = np.arange(n, dtype=np.int64)[isolated] % k
        return owners.astype(np.int32)


class VertexPartition:
    """Result of vertex partitioning (edge-cut).

    Parameters
    ----------
    graph:
        The partitioned graph.
    assignment:
        ``(n,)`` partition id per vertex, values in ``[0, num_partitions)``.
    num_partitions:
        Number of partitions ``k``.
    """

    def __init__(
        self, graph: Graph, assignment: np.ndarray, num_partitions: int
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.int32)
        if assignment.shape != (graph.num_vertices,):
            raise ValueError("assignment must have one entry per vertex")
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= num_partitions
        ):
            raise ValueError("assignment value out of range")
        self.graph = graph
        self.assignment = assignment
        self.num_partitions = int(num_partitions)
        self._owner_tallies: Tuple[np.ndarray, np.ndarray] | None = None

    def owner_tallies(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per machine, derived once (read-only): the undirected edges it
        stores — those with an endpoint it owns, inner edges once, halo
        edges on both sides, as DistDGL does — and the vertices it owns."""
        if self._owner_tallies is None:
            k, edges = self.num_partitions, self.graph.undirected_edges()
            u, v = self.assignment[edges[:, 0]], self.assignment[edges[:, 1]]
            self._owner_tallies = (
                np.bincount(u, minlength=k) + np.bincount(v, minlength=k)
                - np.bincount(u[u == v], minlength=k),
                self.vertex_counts(),
            )
            for array in self._owner_tallies:
                array.setflags(write=False)
        return self._owner_tallies

    def vertex_counts(self) -> np.ndarray:
        """Vertices per partition, shape ``(k,)``."""
        return np.bincount(self.assignment, minlength=self.num_partitions)

    def num_cut_edges(self) -> int:
        """Number of undirected edges whose endpoints live apart: the
        stored-edge tally counts inner edges once and cut edges twice, so
        its excess over |E| is the cut."""
        stored = int(self.owner_tallies()[0].sum())
        return stored - self.graph.undirected_edges().shape[0]

    def local_edge_counts(self) -> np.ndarray:
        """Per-partition count of fully-local (non-cut) undirected edges."""
        edges = self.graph.undirected_edges()
        local = self.assignment[edges[:, 0]] == self.assignment[edges[:, 1]]
        return np.bincount(
            self.assignment[edges[local, 0]], minlength=self.num_partitions
        )

