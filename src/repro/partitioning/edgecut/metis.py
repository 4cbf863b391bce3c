"""METIS-like multilevel k-way vertex partitioner.

Karypis and Kumar, 1996. Heavy-edge-matching coarsening, greedy initial
partitioning, boundary refinement during uncoarsening — see
:mod:`.multilevel` for the machinery. Uses METIS' default 3% imbalance
tolerance (we allow 5% to absorb small-graph granularity).
"""

from __future__ import annotations

import numpy as np

from ...graph import Graph
from ..base import VertexPartitioner
from .multilevel import WeightedGraph, check_effort, multilevel_partition

__all__ = ["MetisPartitioner"]


class MetisPartitioner(VertexPartitioner):
    """Multilevel edge-cut partitioner in the style of METIS."""
    name = "Metis"
    category = "in-memory"

    def __init__(
        self, epsilon: float = 0.05, refine_passes: int = 3
    ) -> None:
        super().__init__()
        check_effort(epsilon, refine_passes)
        self.epsilon = epsilon
        self.refine_passes = refine_passes

    def _assign(
        self, graph: Graph, num_partitions: int, seed: int
    ) -> np.ndarray:
        return multilevel_partition(
            WeightedGraph.from_edges(
                graph.num_vertices, graph.undirected_edges()
            ),
            num_partitions,
            epsilon=self.epsilon,
            refine_passes=self.refine_passes,
            seed=seed,
        )
