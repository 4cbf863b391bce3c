"""Structural statistics used to sanity-check generated graphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import Graph

__all__ = ["GraphStats", "graph_stats", "degree_skew", "clustering_sample"]


@dataclass(frozen=True)
class GraphStats:
    """Structural summary statistics of one graph (paper Table 1 style)."""
    num_vertices: int
    num_edges: int
    mean_degree: float
    max_degree: int
    degree_skew: float
    clustering: float

    def as_row(self) -> str:
        """Fixed-width one-line rendering for tables."""
        return (
            f"|V|={self.num_vertices:>8} |E|={self.num_edges:>9} "
            f"deg={self.mean_degree:6.2f} max={self.max_degree:>6} "
            f"skew={self.degree_skew:6.2f} cc={self.clustering:5.3f}"
        )


def degree_skew(graph: Graph) -> float:
    """Max degree over mean degree: a simple heavy-tail indicator."""
    degrees = graph.degrees()
    mean = degrees.mean() if degrees.size else 0.0
    return float(degrees.max() / mean) if mean > 0 else 0.0


def clustering_sample(graph: Graph, seed: int = 0) -> float:
    """Approximate mean local clustering coefficient over a sample of
    (at most) 500 vertices."""
    rng = np.random.default_rng(seed)
    indptr, indices = graph.symmetric_csr()
    degrees = np.diff(indptr)
    candidates = np.flatnonzero(degrees >= 2)
    if candidates.size == 0:
        return 0.0
    if candidates.size > 500:
        candidates = rng.choice(candidates, size=500, replace=False)
    neighbor_sets = {}
    total = 0.0
    for v in candidates:
        nbrs = indices[indptr[v] : indptr[v + 1]]
        nbr_set = set(int(x) for x in nbrs)
        closed = 0
        for u in nbrs:
            u = int(u)
            if u not in neighbor_sets:
                neighbor_sets[u] = set(
                    int(x) for x in indices[indptr[u] : indptr[u + 1]]
                )
            closed += len(neighbor_sets[u] & nbr_set)
        possible = len(nbrs) * (len(nbrs) - 1)
        total += closed / possible if possible else 0.0
    return float(total / len(candidates))


def graph_stats(graph: Graph, seed: int = 0) -> GraphStats:
    """Bundle of structural statistics for ``graph``."""
    degrees = graph.degrees()
    return GraphStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        mean_degree=float(degrees.mean()) if degrees.size else 0.0,
        max_degree=int(degrees.max()) if degrees.size else 0,
        degree_skew=degree_skew(graph),
        clustering=clustering_sample(graph, seed=seed),
    )
