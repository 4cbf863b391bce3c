"""Degree-Based Hashing (DBH) edge partitioner.

Xie et al., "Distributed Power-law Graph Computing: Theoretical and
Empirical Analysis", NeurIPS 2014. Each edge is hashed on its
*lower-degree* endpoint, so low-degree vertices keep all their edges on one
partition while hub vertices (which would be replicated anyway) absorb the
cuts. Stateless streaming.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ...graph import Graph
from ...graph.chunkstore import EdgeChunkReader
from ..base import EdgePartitioner
from ..outofcore import stream_degrees

__all__ = ["DbhPartitioner"]


def _splitmix64(values: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic 64-bit mix so 'hashing' differs per seed."""
    offset = np.uint64((0x9E3779B97F4A7C15 * (seed + 1)) & 0xFFFFFFFFFFFFFFFF)
    x = values.astype(np.uint64) + offset
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hash_assign(
    edges: np.ndarray,
    degrees: np.ndarray,
    num_partitions: int,
    seed: int,
) -> np.ndarray:
    """The DBH rule for a block of edges: a pure per-edge function."""
    u, v = edges[:, 0], edges[:, 1]
    # Hash on the endpoint with the smaller degree (ties -> smaller id).
    u_smaller = (degrees[u] < degrees[v]) | (
        (degrees[u] == degrees[v]) & (u < v)
    )
    anchor = np.where(u_smaller, u, v)
    hashed = _splitmix64(anchor, seed)
    return (hashed % np.uint64(num_partitions)).astype(np.int32)


class DbhPartitioner(EdgePartitioner):
    """Degree-Based Hashing: cut the higher-degree endpoint (DBH)."""
    name = "DBH"
    category = "stateless streaming"
    supports_stream = True

    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        return _hash_assign(edges, graph.degrees(), num_partitions, seed)

    def _assign_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Degree pass first, then a per-chunk application of the same
        # pure per-edge rule — identical to the in-memory assignment.
        degrees = stream_degrees(reader)
        for chunk in reader.iter_chunks():
            yield chunk, _hash_assign(chunk, degrees, num_partitions, seed)