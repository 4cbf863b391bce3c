"""Linear Deterministic Greedy (LDG) streaming vertex partitioner.

Stanton and Kliot, KDD 2012. Vertices arrive in a stream; each is placed on
the partition holding most of its already-seen neighbours, discounted by a
linear load penalty ``1 - |P_i| / capacity``. Stateful streaming: keeps the
current assignment and partition sizes. The inner loop is the shared
chunk-vectorised kernel in :mod:`.streaming`.
"""

from __future__ import annotations

import numpy as np

from ...graph import Graph
from ..base import VertexPartitioner
from .streaming import VertexStreamState

__all__ = ["LdgPartitioner"]


class LdgPartitioner(VertexPartitioner):
    """Linear Deterministic Greedy streaming vertex placement (LDG)."""
    name = "LDG"
    category = "stateful streaming"
    # The kernel only observes neighbour partition tallies (bincount),
    # so the store-backed CSR drives it bit-identically out-of-core.
    supports_stream = True

    def __init__(self, slack: float = 1.1) -> None:
        super().__init__()
        if slack < 1:
            raise ValueError("slack must be at least 1")
        self.slack = slack

    def _assign(
        self, graph: Graph, num_partitions: int, seed: int
    ) -> np.ndarray:
        rng = np.random.default_rng(seed)
        indptr, indices = graph.symmetric_csr()
        state = VertexStreamState(
            indptr,
            indices,
            num_partitions,
            capacity=self.slack * graph.num_vertices / num_partitions,
            mode="ldg",
        )
        state.place(rng.permutation(graph.num_vertices))
        return state.assignment
