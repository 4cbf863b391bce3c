"""Out-of-core partitioning support: stream passes over a chunk store.

This module holds everything the streaming drive path
(:meth:`~repro.partitioning.base.EdgePartitioner.partition_stream` and
friends) needs to run a partitioner against an on-disk
:class:`~repro.graph.chunkstore.EdgeChunkReader` instead of an
in-memory :class:`~repro.graph.csr.Graph`:

* :func:`stream_degrees` — one pass computing symmetric degrees, the
  stand-in for ``graph.degrees()`` used by DBH and 2PS-L;
* :func:`build_stream_csr` / :class:`StoreGraphView` — an out-of-core
  symmetric CSR (memmap-backed indices) presented through a minimal
  ``Graph``-shaped shim, so the edge-cut streamers (LDG, Fennel, reLDG)
  run their unchanged kernels against it;
* :class:`StreamEdgePartition` / :class:`StreamVertexPartition` — the
  lightweight result containers of the streaming drive path (no
  ``Graph`` object exists to hang a full partition off).

Equivalence contract: when the store holds the exact stream the
in-memory path consumes — ``graph.undirected_edges()`` for vertex-cut
(see :func:`~repro.graph.chunkstore.spool_graph`), the graph's
deduplicated rows for the CSR-based edge-cut algorithms — every pass
here reproduces its in-memory counterpart bit-identically:
:func:`stream_degrees` equals ``graph.degrees()`` and the out-of-core
CSR has identical ``indptr`` and per-vertex neighbour *multisets*
(neighbour order differs, which the edge-cut kernels never observe:
they only tally neighbour partitions with ``bincount``).
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from ..graph.chunkstore import EdgeChunkReader
from .ordering import stable_order

__all__ = [
    "stream_degrees",
    "build_stream_csr",
    "StoreGraphView",
    "StreamEdgePartition",
    "StreamVertexPartition",
]


def stream_degrees(reader: EdgeChunkReader) -> np.ndarray:
    """Symmetric degree of every vertex, computed in one store pass.

    Both endpoints of every row count, except that self-loops count
    once — exactly the multiplicity of ``Graph.symmetric_csr()``, so
    for a store spooled from a graph's deduplicated rows this equals
    ``graph.degrees()``.
    """
    n = reader.num_vertices
    degrees = np.zeros(n, dtype=np.int64)
    for chunk in reader.iter_chunks():
        u, v = chunk[:, 0], chunk[:, 1]
        degrees += np.bincount(u, minlength=n)
        degrees += np.bincount(v[v != u], minlength=n)
    return degrees


def build_stream_csr(
    reader: EdgeChunkReader,
    indices_path: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Build the symmetric CSR of a spooled edge stream out-of-core.

    Two passes over the store: a degree pass producing ``indptr``
    (held in memory, O(n)), then a scatter pass writing the neighbour
    array into a memmap at ``indices_path`` (O(m) on disk, O(chunk) in
    memory). Defaults to ``_sym_indices.npy`` inside the store
    directory; an existing file is overwritten.

    ``indptr`` is identical to the in-memory
    ``Graph.symmetric_csr()`` over the same rows; ``indices`` holds
    the same neighbour multiset per vertex but in stream order rather
    than sorted by target id.
    """
    n = reader.num_vertices
    degrees = stream_degrees(reader)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    if indices_path is None:
        indices_path = os.path.join(reader.directory, "_sym_indices.npy")
    indices = np.lib.format.open_memmap(
        indices_path, mode="w+", dtype=np.int64, shape=(int(indptr[-1]),)
    )
    cursor = indptr[:-1].copy()
    for chunk in reader.iter_chunks():
        u, v = chunk[:, 0], chunk[:, 1]
        loops = u == v
        # Mirror every row; self-loop mirrors are dropped so loops
        # appear once, as in Graph.symmetric_csr().
        src = np.concatenate([u, v[~loops]])
        dst = np.concatenate([v, u[~loops]])
        order = stable_order(src, n)
        src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=n)
        group_start = np.cumsum(counts) - counts
        rank = np.arange(src.size) - group_start[src]
        indices[cursor[src] + rank] = dst
        cursor += counts
    indices.flush()
    return indptr, indices


class StoreGraphView:
    """A ``Graph``-shaped window onto a chunk store for edge-cut kernels.

    Exposes exactly the surface the CSR-driven streaming vertex
    partitioners consume — ``num_vertices``, ``num_edges``,
    ``symmetric_csr()``, ``degrees()`` — with the CSR built
    out-of-core on first use (memmap-backed neighbour array). Their
    unchanged ``_assign`` kernels run against this view and, because
    they are neighbour-order-independent, produce assignments
    bit-identical to the in-memory path.
    """

    def __init__(self, reader: EdgeChunkReader) -> None:
        self.reader = reader
        self.name = f"store:{os.path.basename(reader.directory)}"
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        """Declared vertex-id space of the store."""
        return self.reader.num_vertices

    @property
    def num_edges(self) -> int:
        """Stored rows (matches ``Graph.num_edges`` for spooled graphs)."""
        return self.reader.num_edges

    @property
    def directed(self) -> bool:
        """Whether the stored rows are directed arcs."""
        return self.reader.directed

    def symmetric_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The out-of-core symmetric CSR (built and cached on first use)."""
        if self._indptr is None:
            self._indptr, indices = build_stream_csr(self.reader)
            # A plain view of the memmap: slicing a ``np.memmap`` pays
            # for its subclass on every call.
            self._indices = indices.view(np.ndarray)
        return self._indptr, self._indices

    def degrees(self) -> np.ndarray:
        """Symmetric degree of every vertex."""
        indptr, _ = self.symmetric_csr()
        return np.diff(indptr)


class StreamEdgePartition:
    """Result of an out-of-core vertex-cut run (edge assignment).

    The edges themselves stay on disk; this container carries the
    materialised assignment (one int32 per stored row, in store order)
    plus the store dimensions. Produced by
    :meth:`EdgePartitioner.partition_stream`; the fully-streaming
    consumers (shuffle, benchmarks) use
    :meth:`EdgePartitioner.stream_assignments` instead and never
    materialise it.
    """

    def __init__(
        self,
        reader: EdgeChunkReader,
        assignment: np.ndarray,
        num_partitions: int,
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.int32)
        if assignment.shape[0] != reader.num_edges:
            raise ValueError(
                "assignment length must equal the store's edge count"
            )
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= num_partitions
        ):
            raise ValueError("assignment value out of range")
        self.reader = reader
        self.assignment = assignment
        self.num_partitions = int(num_partitions)

    @property
    def num_vertices(self) -> int:
        """Vertex-id space of the partitioned stream."""
        return self.reader.num_vertices

    @property
    def num_edges(self) -> int:
        """Number of assigned rows."""
        return int(self.assignment.shape[0])

    def edge_counts(self) -> np.ndarray:
        """Edges per partition, shape ``(k,)``."""
        return np.bincount(self.assignment, minlength=self.num_partitions)


class StreamVertexPartition:
    """Result of an out-of-core edge-cut run (vertex assignment)."""

    def __init__(
        self,
        reader: EdgeChunkReader,
        assignment: np.ndarray,
        num_partitions: int,
    ) -> None:
        assignment = np.asarray(assignment, dtype=np.int32)
        if assignment.shape[0] != reader.num_vertices:
            raise ValueError("assignment must have one entry per vertex")
        if assignment.size and (
            assignment.min() < 0 or assignment.max() >= num_partitions
        ):
            raise ValueError("assignment value out of range")
        self.reader = reader
        self.assignment = assignment
        self.num_partitions = int(num_partitions)

    @property
    def num_vertices(self) -> int:
        """Number of assigned vertices."""
        return int(self.assignment.shape[0])

    def vertex_counts(self) -> np.ndarray:
        """Vertices per partition, shape ``(k,)``."""
        return np.bincount(self.assignment, minlength=self.num_partitions)
