"""Restreaming LDG (reLDG).

Nishimura and Ugander, KDD 2013 (cited as [33] in the paper). Runs LDG's
greedy placement repeatedly: after the first pass, every further pass
re-streams the vertices and reassigns them using the *previous* pass's
assignment as neighbour context, monotonically improving the cut while
keeping the streaming memory profile. An extension beyond the paper's
Table 2, used by the ablation benchmarks. The inner loop is the shared
chunk-vectorised kernel in :mod:`..edgecut.streaming`, called with
``vacate=True`` on restreaming passes.
"""

from __future__ import annotations

import numpy as np

from ...graph import Graph
from ..base import VertexPartitioner
from ..edgecut.streaming import VertexStreamState

__all__ = ["RestreamingLdgPartitioner"]


class RestreamingLdgPartitioner(VertexPartitioner):
    """LDG with multiple restreaming passes (reLDG)."""
    name = "reLDG"
    category = "stateful streaming"
    # The kernel only observes neighbour partition tallies (bincount),
    # so the store-backed CSR drives it bit-identically out-of-core.
    supports_stream = True

    def __init__(self, passes: int = 5, slack: float = 1.1) -> None:
        super().__init__()
        if passes < 1:
            raise ValueError("need at least one pass")
        if slack < 1:
            raise ValueError("slack must be at least 1")
        self.passes = passes
        self.slack = slack

    def _assign(
        self, graph: Graph, num_partitions: int, seed: int
    ) -> np.ndarray:
        rng = np.random.default_rng(seed)
        indptr, indices = graph.symmetric_csr()
        n = graph.num_vertices
        state = VertexStreamState(
            indptr,
            indices,
            num_partitions,
            capacity=self.slack * n / num_partitions,
            mode="ldg",
        )
        for pass_index in range(self.passes):
            # Restreaming passes vacate each vertex's old slot before
            # re-placing it against the previous pass's assignment.
            state.place(rng.permutation(n), vacate=pass_index > 0)
        return state.assignment
