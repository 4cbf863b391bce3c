"""NE: standalone neighbourhood-expansion edge partitioner.

Zhang et al., KDD 2017 ("Graph Edge Partitioning via Neighborhood
Heuristic", cited as [48] in the paper). The pure in-memory expansion that
HEP hybridises: every edge is placed by growing partitions around tightly
connected cores — no streaming fallback. Exposed as an extension so the
ablation benchmarks can separate NE's contribution from HEP's hybrid
degree thresholding.
"""

from __future__ import annotations

import numpy as np

from ...graph import Graph
from ..base import EdgePartitioner
from ..vertexcut.hep import neighborhood_expansion
from ..vertexcut.refine import refine_replicas
from ..vertexcut.streaming import HdrfState

__all__ = ["NePartitioner"]


class NePartitioner(EdgePartitioner):
    """Neighbourhood-expansion edge partitioner (NE)."""
    name = "NE"
    category = "in-memory"

    def __init__(self, balance_cap: float = 1.1, refine: bool = True) -> None:
        super().__init__()
        if balance_cap < 1:
            raise ValueError("balance_cap must be at least 1")
        self.balance_cap = balance_cap
        self.refine = refine

    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        rng = np.random.default_rng(seed)
        degrees = graph.degrees().astype(np.int64)
        assignment = np.full(edges.shape[0], -1, dtype=np.int32)
        cap = int(
            np.ceil(self.balance_cap * edges.shape[0] / num_partitions)
        )
        all_ids = np.arange(edges.shape[0], dtype=np.int64)
        leftovers = neighborhood_expansion(
            graph.num_vertices,
            edges,
            all_ids,
            assignment,
            num_partitions,
            cap,
            degrees,
        )
        placed = all_ids[assignment >= 0]
        if self.refine:
            refine_replicas(
                edges, assignment, placed, graph.num_vertices,
                num_partitions, cap, seed,
            )
        if leftovers.size:
            # The balance cap can strand a few edges; place them with an
            # HDRF scorer seeded from the expansion result.
            state = HdrfState(graph.num_vertices, num_partitions)
            state.seed_from(edges[assignment >= 0], assignment[assignment >= 0])
            order = rng.permutation(leftovers.shape[0])
            streamed = leftovers[order]
            assignment[streamed] = state.place_edges(edges[streamed])
        return assignment
