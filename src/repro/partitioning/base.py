"""Partitioner interfaces.

Every partitioner in the study implements one of two abstract bases:

* :class:`EdgePartitioner` — vertex-cut; produces an :class:`EdgePartition`.
* :class:`VertexPartitioner` — edge-cut; produces a :class:`VertexPartition`.

Both expose ``partition(graph, num_partitions, seed=0)`` and record the
wall-clock partitioning time of the last run (used by the amortization
analysis, Tables 4 and 5 of the paper).

The streaming algorithms additionally expose an out-of-core drive path
over an on-disk edge spool (:class:`~repro.graph.chunkstore.EdgeChunkReader`):
``partition_stream(reader, num_partitions, seed=0)`` and — for
vertex-cut, where the per-edge assignment itself is O(m) — the fully
streaming ``stream_assignments(...)`` generator. Classes advertising
``supports_stream = True`` guarantee the out-of-core assignments are
bit-identical to the in-memory path over the same stream order (spool
the graph with :func:`~repro.graph.chunkstore.spool_graph` and disable
stream shuffling where the algorithm has it).
"""

from __future__ import annotations

import abc
import time
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..graph import Graph
from ..graph.chunkstore import EdgeChunkReader
from ..obs import api as obs
from ..obs.profiling import capture as profiling
from .assignment import EdgePartition, VertexPartition
from .outofcore import (
    StoreGraphView,
    StreamEdgePartition,
    StreamVertexPartition,
)

__all__ = ["Partitioner", "EdgePartitioner", "VertexPartitioner"]


class Partitioner(abc.ABC):
    """Common behaviour: naming, categories and timing."""

    #: Short name as used in the paper's tables, e.g. ``"HDRF"``.
    name: str = "base"
    #: ``"vertex-cut"`` (edge partitioning) or ``"edge-cut"`` (vertex part.).
    cut_type: str = ""
    #: Paper's category: stateless/stateful streaming, hybrid, in-memory.
    category: str = ""
    #: True when the algorithm has an out-of-core drive path whose
    #: assignments are bit-identical to the in-memory one.
    supports_stream: bool = False

    def __init__(self) -> None:
        self.last_partitioning_seconds: Optional[float] = None

    def _check_args(self, graph: Graph, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if graph.num_vertices == 0:
            raise ValueError("cannot partition an empty graph")

    def _check_stream_args(
        self, reader: EdgeChunkReader, num_partitions: int
    ) -> None:
        if not self.supports_stream:
            raise NotImplementedError(
                f"{self.name} has no out-of-core streaming path"
            )
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        if reader.num_vertices <= 0:
            raise ValueError("cannot partition an empty store")

    def _timed(
        self, scope: str, assign: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Run ``assign`` as one timed, profiled, counted partitioning run.

        The wall clock lands in :attr:`last_partitioning_seconds`, the
        profile scope is ``partitioner.<name>`` plus ``scope``; a
        vertex-cut run also counts the edges it assigned.
        """
        start = time.perf_counter()
        with profiling.profile_scope(
            f"partitioner.{self.name.lower()}{scope}"
        ):
            assignment = assign()
        self.last_partitioning_seconds = time.perf_counter() - start
        obs.count("partitioner.runs", algorithm=self.name)
        if self.cut_type == "vertex-cut":
            obs.count(
                "partitioner.edges_assigned",
                int(assignment.shape[0]),
                algorithm=self.name,
            )
        return assignment

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class EdgePartitioner(Partitioner):
    """Vertex-cut partitioner: assigns every undirected edge to a partition."""

    cut_type = "vertex-cut"

    def partition(
        self, graph: Graph, num_partitions: int, seed: int = 0
    ) -> EdgePartition:
        """Partition the graph's edges into ``num_partitions`` buckets."""
        self._check_args(graph, num_partitions)
        edges = graph.undirected_edges()
        assignment = self._timed(
            "", lambda: self._assign(graph, edges, num_partitions, seed)
        )
        return EdgePartition(graph, edges, assignment, num_partitions)

    @abc.abstractmethod
    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        """Return a partition id per row of ``edges``."""

    # ------------------------------------------------------------------
    # Out-of-core drive path
    # ------------------------------------------------------------------
    def stream_assignments(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int = 0
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream the store once, yielding ``(edges, assignment)`` blocks.

        The fully out-of-core API: nothing O(m) is materialised — peak
        memory is bounded by the block size plus the algorithm's own
        state. Blocks cover the store in order; their boundaries are an
        implementation detail (kernels may re-chunk the store's chunks).
        """
        self._check_stream_args(reader, num_partitions)
        return self._assign_stream(reader, num_partitions, seed)

    def partition_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int = 0
    ) -> StreamEdgePartition:
        """Out-of-core run materialising the full per-edge assignment.

        Convenience wrapper over :meth:`stream_assignments` for
        moderate stores (the assignment is O(m) int32); the shuffle
        pass and the scale benchmarks consume the generator directly.
        """
        self._check_stream_args(reader, num_partitions)

        def assign() -> np.ndarray:
            parts = [
                assignment
                for _, assignment in self._assign_stream(
                    reader, num_partitions, seed
                )
            ]
            if not parts:
                return np.empty(0, dtype=np.int32)
            return np.concatenate(parts)

        assignment = self._timed(".stream", assign)
        return StreamEdgePartition(reader, assignment, num_partitions)

    def _assign_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(edges, assignment)`` blocks covering the store."""
        raise NotImplementedError(
            f"{self.name} has no out-of-core streaming path"
        )


class VertexPartitioner(Partitioner):
    """Edge-cut partitioner: assigns every vertex to a partition."""

    cut_type = "edge-cut"

    def partition(
        self, graph: Graph, num_partitions: int, seed: int = 0
    ) -> VertexPartition:
        """Partition the graph's vertices into ``num_partitions`` parts."""
        self._check_args(graph, num_partitions)
        assignment = self._timed(
            "", lambda: self._assign(graph, num_partitions, seed)
        )
        return VertexPartition(graph, assignment, num_partitions)

    @abc.abstractmethod
    def _assign(
        self, graph: Graph, num_partitions: int, seed: int
    ) -> np.ndarray:
        """Return a partition id per vertex."""

    # ------------------------------------------------------------------
    # Out-of-core drive path
    # ------------------------------------------------------------------
    def partition_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int = 0
    ) -> StreamVertexPartition:
        """Out-of-core run against a spooled edge stream.

        The vertex assignment is O(n) and is always materialised; only
        the edge data stays out-of-core (the symmetric CSR is built in
        two store passes with a memmap-backed neighbour array).
        """
        self._check_stream_args(reader, num_partitions)
        assignment = self._timed(
            ".stream",
            lambda: self._assign_stream(reader, num_partitions, seed),
        )
        return StreamVertexPartition(reader, assignment, num_partitions)

    def _assign_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int
    ) -> np.ndarray:
        """Run the unchanged in-memory kernel against a store-backed view.

        The CSR-driven streamers (LDG, Fennel, reLDG) are
        neighbour-order-independent, so the out-of-core CSR of
        :class:`StoreGraphView` reproduces their in-memory assignments
        bit-identically; the two store passes of the CSR build are the
        only edge-data passes.
        """
        view = StoreGraphView(reader)
        return self._assign(view, num_partitions, seed)
