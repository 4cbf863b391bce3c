"""KaHIP-like multilevel partitioner with repeated V-cycles.

Sanders and Schulz, SEA 2013 ("Think Locally, Act Globally"). Same
multilevel scheme as METIS but with a tighter balance constraint, deeper
local search, and several independent repetitions from which the best cut
is kept. This buys the lowest edge-cut of all partitioners in the study at
the price of by far the highest partitioning time (paper, Figures 12/15).
"""

from __future__ import annotations

import numpy as np

from ...graph import Graph
from ..base import VertexPartitioner
from .multilevel import (
    WeightedGraph,
    check_effort,
    cut_weight,
    multilevel_partition,
)

__all__ = ["KahipPartitioner"]


class KahipPartitioner(VertexPartitioner):
    """Multilevel edge-cut partitioner tuned like KaHIP (strong refinement)."""
    name = "KaHIP"
    category = "in-memory"

    def __init__(
        self,
        epsilon: float = 0.03,
        refine_passes: int = 8,
        repetitions: int = 4,
    ) -> None:
        super().__init__()
        check_effort(epsilon, refine_passes)
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        self.epsilon = epsilon
        self.refine_passes = refine_passes
        self.repetitions = repetitions

    def _assign(
        self, graph: Graph, num_partitions: int, seed: int
    ) -> np.ndarray:
        weighted = WeightedGraph.from_edges(
            graph.num_vertices, graph.undirected_edges()
        )
        best_assignment, best_cut = None, -1
        for rep in range(self.repetitions):
            assignment = multilevel_partition(
                weighted,
                num_partitions,
                epsilon=self.epsilon,
                refine_passes=self.refine_passes,
                seed=seed * self.repetitions + rep,
            )
            cut = cut_weight(weighted, assignment)
            if best_assignment is None or cut < best_cut:
                best_assignment, best_cut = assignment, cut
        return best_assignment
