"""Incremental construction of :class:`~repro.graph.csr.Graph` objects."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from .csr import Graph

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Accumulates edges and produces an immutable :class:`Graph`.

    Duplicate edges and (for undirected graphs) mirrored duplicates are
    removed at :meth:`build` time. Self loops are allowed but most
    generators avoid them.

    For edge streams too large to finalize in memory, the pending edges
    can instead be spilled into an on-disk chunk store with
    :meth:`spill_to` and fed to the out-of-core partitioning path.
    """

    def __init__(self, directed: bool = False, name: str = "") -> None:
        self._directed = directed
        self._name = name
        self._sources: list[int] = []
        self._targets: list[int] = []
        self._chunks: list[np.ndarray] = []
        self._max_vertex = -1

    def add_edge(self, u: int, v: int) -> None:
        """Queue one edge ``u -> v``."""
        if u < 0 or v < 0:
            raise ValueError("vertex ids must be non-negative")
        self._sources.append(u)
        self._targets.append(v)
        self._max_vertex = max(self._max_vertex, u, v)

    def add_edges(self, pairs: Iterable[Tuple[int, int]]) -> None:
        """Queue an iterable of ``(u, v)`` pairs.

        Array-like input — a numpy array, or any sequence convertible to
        an ``(m, 2)`` integer array (e.g. a list of tuples) — is bulk
        delegated to :meth:`add_edge_array` instead of looping a python
        ``add_edge`` call per pair.
        """
        if isinstance(pairs, np.ndarray):
            self.add_edge_array(pairs)
            return
        if isinstance(pairs, (list, tuple)) and pairs:
            try:
                array = np.asarray(pairs, dtype=np.int64)
            except (TypeError, ValueError, OverflowError):
                array = None
            if array is not None and array.ndim == 2 and array.shape[1] == 2:
                self.add_edge_array(array)
                return
        for u, v in pairs:
            self.add_edge(int(u), int(v))

    def add_edge_array(self, edges: np.ndarray) -> None:
        """Bulk-add an ``(m, 2)`` array of edges."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size == 0:
            return
        if edges.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        self._chunks.append(edges)
        self._max_vertex = max(self._max_vertex, int(edges.max()))

    @property
    def num_pending_edges(self) -> int:
        """Edges queued so far (scalar adds plus bulk chunks)."""
        return len(self._sources) + sum(c.shape[0] for c in self._chunks)

    def _pending_parts(self) -> list[np.ndarray]:
        parts = list(self._chunks)
        if self._sources:
            parts.append(
                np.stack(
                    [
                        np.asarray(self._sources, dtype=np.int64),
                        np.asarray(self._targets, dtype=np.int64),
                    ],
                    axis=1,
                )
            )
        return parts

    def spill_to(self, writer) -> int:
        """Flush all pending edges into an edge-chunk writer and clear them.

        ``writer`` is an :class:`~repro.graph.chunkstore.EdgeChunkWriter`
        (anything with an ``append(block)`` method works). The builder is
        left empty and can keep accumulating — repeated spills append to
        the same stream, which is how a generator loop keeps its peak
        memory bounded while targeting the out-of-core pipeline. Returns
        the number of edges spilled. The caller closes the writer.
        """
        spilled = 0
        for part in self._pending_parts():
            writer.append(part)
            spilled += part.shape[0]
        self._sources.clear()
        self._targets.clear()
        self._chunks.clear()
        return spilled

    def build(self, num_vertices: Optional[int] = None) -> Graph:
        """Finalize the builder into a graph.

        ``num_vertices`` defaults to ``max vertex id + 1``. The builder can
        be reused afterwards; building does not clear accumulated edges.
        """
        parts = self._pending_parts()
        if parts:
            edges = np.concatenate(parts, axis=0)
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
        if num_vertices is None:
            num_vertices = self._max_vertex + 1 if self._max_vertex >= 0 else 1
        return Graph(
            num_vertices, edges, directed=self._directed, name=self._name
        )
