"""Partitioner selection advisor (paper RQ-5 operationalised).

The paper closes by noting that invested partitioning time amortizes and
that partitioner selection matters (the authors' companion work, EASE
[32], learns such recommendations). This module provides a pragmatic
advisor: it measures every candidate on a *sampled subgraph* — orders of
magnitude cheaper than partitioning the full graph — extrapolates the
partitioning cost, simulates the training cost under the cost model, and
recommends the partitioner minimising total time for the planned number
of epochs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..distgnn import DistGnnEngine
from ..graph import Graph
from ..partitioning import make_edge_partitioner
from .config import TrainingParams

__all__ = ["Recommendation", "CandidateEstimate", "recommend_edge_partitioner"]


@dataclass(frozen=True)
class CandidateEstimate:
    """Extrapolated cost profile of one candidate partitioner."""

    name: str
    partitioning_seconds: float
    epoch_seconds: float
    total_seconds: float
    replication_factor: float


@dataclass(frozen=True)
class Recommendation:
    """Advisor output: the winner plus every candidate's estimate."""

    best: str
    planned_epochs: int
    estimates: List[CandidateEstimate]


def _sample_subgraph(
    graph: Graph, fraction: float, seed: int
) -> Graph:
    """Random induced subgraph with ~``fraction`` of the vertices."""
    rng = np.random.default_rng(seed)
    size = max(int(fraction * graph.num_vertices), 50)
    size = min(size, graph.num_vertices)
    keep = rng.choice(graph.num_vertices, size=size, replace=False)
    return graph.subgraph(np.sort(keep))


def recommend_edge_partitioner(
    graph: Graph,
    num_machines: int,
    planned_epochs: int,
    params: Optional[TrainingParams] = None,
    candidates: Sequence[str] = (
        "random", "dbh", "hdrf", "2ps-l", "hep10", "hep100",
    ),
    sample_fraction: float = 0.3,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    seed: int = 0,
) -> Recommendation:
    """Recommend a vertex-cut partitioner for a DistGNN-style workload.

    Candidates are evaluated on a sampled induced subgraph; the measured
    partitioning time is extrapolated linearly in the edge count (all
    candidates are (near-)linear in |E| for fixed k), and the training
    cost comes from the analytic engine on the sampled partition, scaled
    by the edge ratio. Rankings — not absolute seconds — are the output
    that matters, mirroring the amortization tables.
    """
    if planned_epochs < 1:
        raise ValueError("planned_epochs must be positive")
    if not 0 < sample_fraction <= 1:
        raise ValueError("sample_fraction must be in (0, 1]")
    params = params or TrainingParams()
    sample = _sample_subgraph(graph, sample_fraction, seed)
    edge_ratio = max(
        graph.undirected_edges().shape[0]
        / max(sample.undirected_edges().shape[0], 1),
        1.0,
    )

    estimates = []
    for name in candidates:
        partitioner = make_edge_partitioner(name)
        start = time.perf_counter()
        partition = partitioner.partition(sample, num_machines, seed=seed)
        sample_seconds = time.perf_counter() - start
        engine = DistGnnEngine(
            partition,
            feature_size=params.feature_size,
            hidden_dim=params.hidden_dim,
            num_layers=params.num_layers,
            num_classes=params.num_classes,
            cost_model=cost_model,
        )
        breakdown = engine.simulate_epoch()
        part_seconds = (
            sample_seconds
            * edge_ratio
            * cost_model.partitioning_time_scale
        )
        epoch_seconds = breakdown.epoch_seconds * edge_ratio
        if name == "random":
            part_seconds = 0.0  # the paper treats Random as free
        estimates.append(
            CandidateEstimate(
                name=name,
                partitioning_seconds=part_seconds,
                epoch_seconds=epoch_seconds,
                total_seconds=part_seconds
                + planned_epochs * epoch_seconds,
                replication_factor=float(
                    partition.vertex_counts().sum()
                    / max(
                        np.count_nonzero(partition.copies_per_vertex()), 1
                    )
                ),
            )
        )
    best = min(estimates, key=lambda e: e.total_seconds)
    return Recommendation(
        best=best.name, planned_epochs=planned_epochs, estimates=estimates
    )
