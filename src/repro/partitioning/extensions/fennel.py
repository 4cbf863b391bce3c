"""Fennel streaming vertex partitioner.

Tsourakakis et al., WSDM 2014. A one-pass streaming partitioner whose
score interpolates between LDG's neighbour affinity and a degree-based
balance penalty: vertex ``v`` goes to the partition maximising

    |N(v) ∩ P_i| - alpha * gamma * |P_i|^(gamma - 1)

with ``gamma = 1.5`` and ``alpha = sqrt(k) * m / n^1.5`` (the authors'
defaults). Not part of the paper's Table 2 — included as an extension for
the ablation study comparing the studied set against further streaming
partitioners. The inner loop is the shared chunk-vectorised kernel in
:mod:`..edgecut.streaming`.
"""

from __future__ import annotations

import numpy as np

from ...graph import Graph
from ..base import VertexPartitioner
from ..edgecut.streaming import VertexStreamState

__all__ = ["FennelPartitioner"]


class FennelPartitioner(VertexPartitioner):
    """Fennel: streaming vertex placement with a tunable balance penalty."""
    name = "Fennel"
    category = "stateful streaming"
    # The kernel only observes neighbour partition tallies (bincount),
    # so the store-backed CSR drives it bit-identically out-of-core.
    supports_stream = True

    def __init__(self, gamma: float = 1.5, slack: float = 1.1) -> None:
        super().__init__()
        if gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        if slack < 1:
            raise ValueError("slack must be at least 1")
        self.gamma = gamma
        self.slack = slack

    def _assign(
        self, graph: Graph, num_partitions: int, seed: int
    ) -> np.ndarray:
        rng = np.random.default_rng(seed)
        indptr, indices = graph.symmetric_csr()
        n, k = graph.num_vertices, num_partitions
        m = graph.num_edges
        state = VertexStreamState(
            indptr,
            indices,
            k,
            capacity=self.slack * n / k,
            mode="fennel",
            alpha=np.sqrt(k) * m / max(n, 1) ** self.gamma,
            gamma=self.gamma,
        )
        state.place(rng.permutation(n))
        return state.assignment
