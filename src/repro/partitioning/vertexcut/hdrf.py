"""High-Degree (are) Replicated First — HDRF.

Petroni et al., CIKM 2015. Stateful streaming vertex-cut: each incoming
edge is placed on the partition maximising a score that (a) prefers
partitions already holding the edge's endpoints, weighted so that the
*lower*-degree endpoint dominates the decision (replicate hubs, keep
low-degree vertices whole), and (b) penalises imbalance.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ...graph import Graph
from ...graph.chunkstore import EdgeChunkReader
from ..base import EdgePartitioner
from .streaming import HdrfState

__all__ = ["HdrfPartitioner"]


class HdrfPartitioner(EdgePartitioner):
    """High-Degree Replicated First greedy streaming edge placement (HDRF)."""
    name = "HDRF"
    category = "stateful streaming"
    supports_stream = True

    def __init__(
        self, lambda_balance: float = 1.1, shuffle_stream: bool = True
    ) -> None:
        super().__init__()
        self.lambda_balance = lambda_balance
        # ``shuffle_stream=False`` streams edges in their given order
        # instead of a seeded permutation — the order the out-of-core
        # path necessarily uses (permuting is O(m) memory), so the two
        # paths are comparable bit-for-bit.
        self.shuffle_stream = shuffle_stream

    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        state = HdrfState(
            graph.num_vertices, num_partitions, self.lambda_balance
        )
        if not self.shuffle_stream:
            return state.place_edges(edges)
        rng = np.random.default_rng(seed)
        order = rng.permutation(edges.shape[0])
        assignment = np.empty(edges.shape[0], dtype=np.int32)
        assignment[order] = state.place_edges(edges[order])
        return assignment

    def _assign_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        state = HdrfState(
            reader.num_vertices, num_partitions, self.lambda_balance
        )
        return state.place_blocks(reader.iter_chunks())