"""Random (hash) edge partitioning — the paper's vertex-cut baseline."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ...graph import Graph
from ...graph.chunkstore import EdgeChunkReader
from ..base import EdgePartitioner

__all__ = ["RandomEdgePartitioner"]


class RandomEdgePartitioner(EdgePartitioner):
    """Assigns each edge to a uniformly random partition.

    Stateless streaming: the assignment of an edge depends on nothing but
    the edge itself. Produces near-perfect edge balance and the worst
    replication factor of all partitioners (paper, Figure 2).
    """

    name = "Random"
    category = "stateless streaming"
    supports_stream = True

    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.integers(
            0, num_partitions, size=edges.shape[0], dtype=np.int32
        )

    def _assign_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Sequential draws from one Generator concatenate to exactly the
        # single full-size draw of the in-memory path, so the chunked
        # assignment is identical whatever the store chunking.
        rng = np.random.default_rng(seed)
        for chunk in reader.iter_chunks():
            yield chunk, rng.integers(
                0, num_partitions, size=chunk.shape[0], dtype=np.int32
            )