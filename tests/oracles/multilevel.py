"""Pre-PR-14 bodies of the multilevel (METIS/KaHIP) kernels, verbatim.

``coarsen``, ``initial_partition``, ``rebalance`` and ``refine`` exactly as
they stood in ``repro.partitioning.edgecut.multilevel`` before the
incremental-state rewrite: one neighbourhood walk with a handful of tiny
numpy calls per visited vertex. Do not tidy them — they are the reference
the rewrite is pinned against (see ``tests/oracles/test_bit_identity.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Tuple

import numpy as np

from repro.partitioning.edgecut.multilevel import WeightedGraph

__all__ = ["coarsen", "initial_partition", "rebalance", "refine"]


def coarsen(
    graph: WeightedGraph, rng: np.random.Generator
) -> Tuple[WeightedGraph, np.ndarray]:
    """One level of heavy-edge-matching contraction.

    Returns the coarse graph and the fine->coarse vertex mapping.
    """
    n = graph.num_vertices
    match = np.full(n, -1, dtype=np.int64)
    for v in rng.permutation(n):
        v = int(v)
        if match[v] >= 0:
            continue
        nbrs, wgts = graph.neighbors(v)
        free = match[nbrs] < 0
        candidates = nbrs[free]
        if candidates.size == 0:
            match[v] = v  # stays a singleton
            continue
        partner = int(candidates[np.argmax(wgts[free])])
        if partner == v:
            match[v] = v
            continue
        match[v] = partner
        match[partner] = v
    # Number coarse vertices: one id per matched pair / singleton.
    coarse_of = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for v in range(n):
        if coarse_of[v] >= 0:
            continue
        coarse_of[v] = next_id
        partner = match[v]
        if partner != v and coarse_of[partner] < 0:
            coarse_of[partner] = next_id
        next_id += 1
    coarse_vw = np.zeros(next_id, dtype=np.int64)
    np.add.at(coarse_vw, coarse_of, graph.vweights)

    # Contract edges: group by coarse endpoint pair, summing weights.
    half = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    cu = coarse_of[half]
    cv = coarse_of[graph.indices]
    keep = cu < cv  # each undirected edge once; drops intra-pair edges
    key = cu[keep] * next_id + cv[keep]
    uniq, inverse = np.unique(key, return_inverse=True)
    weights = np.zeros(uniq.shape[0], dtype=np.int64)
    np.add.at(weights, inverse, graph.eweights[keep])
    edges = np.stack([uniq // next_id, uniq % next_id], axis=1)
    coarse = WeightedGraph.from_weighted_edges(
        next_id, edges, weights, coarse_vw
    )
    return coarse, coarse_of


def initial_partition(
    graph: WeightedGraph, num_partitions: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy BFS region growing on the coarsest graph."""
    n = graph.num_vertices
    assignment = np.full(n, -1, dtype=np.int32)
    target = graph.total_vertex_weight / num_partitions
    unassigned = n
    for part in range(num_partitions - 1):
        load = 0
        frontier: deque[int] = deque()
        while load < target and unassigned > 0:
            if not frontier:
                pool = np.flatnonzero(assignment < 0)
                frontier.append(int(pool[rng.integers(pool.size)]))
            v = frontier.popleft()
            if assignment[v] >= 0:
                continue
            assignment[v] = part
            load += int(graph.vweights[v])
            unassigned -= 1
            nbrs, _ = graph.neighbors(v)
            for u in nbrs[assignment[nbrs] < 0]:
                frontier.append(int(u))
    assignment[assignment < 0] = num_partitions - 1
    return assignment


def rebalance(
    graph: WeightedGraph,
    assignment: np.ndarray,
    num_partitions: int,
    max_load: float,
    rng: np.random.Generator,
) -> None:
    """Force overweight partitions under ``max_load`` via cheapest moves."""
    loads = np.zeros(num_partitions, dtype=np.int64)
    np.add.at(loads, assignment, graph.vweights)
    for part in range(num_partitions):
        if loads[part] <= max_load:
            continue
        members = np.flatnonzero(assignment == part)
        for v in rng.permutation(members):
            if loads[part] <= max_load:
                break
            v = int(v)
            nbrs, wgts = graph.neighbors(v)
            ext = assignment[nbrs] != part
            if ext.any():
                options = assignment[nbrs[ext]]
                weights = wgts[ext]
                # Move toward the most-connected non-full partition.
                scores = np.bincount(
                    options, weights=weights, minlength=num_partitions
                )
                scores[loads >= max_load] = -1
                target = int(scores.argmax())
                if scores[target] < 0:
                    target = int(loads.argmin())
            else:
                target = int(loads.argmin())
            if target == part:
                continue
            assignment[v] = target
            loads[part] -= graph.vweights[v]
            loads[target] += graph.vweights[v]


def refine(
    graph: WeightedGraph,
    assignment: np.ndarray,
    num_partitions: int,
    max_load: float,
    passes: int,
    rng: np.random.Generator,
) -> int:
    """Greedy boundary refinement; returns the number of moves made.

    Each pass visits vertices in random order and moves a vertex to the
    neighbouring partition with the highest positive gain (external minus
    internal edge weight), subject to the balance cap. Zero-gain moves are
    taken when they improve balance — this is the classic FM heuristic
    without the full priority-queue machinery, which at our scales performs
    equivalently.
    """
    loads = np.zeros(num_partitions, dtype=np.int64)
    np.add.at(loads, assignment, graph.vweights)
    total_moves = 0
    for _ in range(passes):
        moves = 0
        for v in rng.permutation(graph.num_vertices):
            v = int(v)
            nbrs, wgts = graph.neighbors(v)
            if nbrs.size == 0:
                continue
            parts = assignment[nbrs]
            own = assignment[v]
            if not (parts != own).any():
                continue  # interior vertex
            conn = np.bincount(
                parts, weights=wgts, minlength=num_partitions
            )
            internal = conn[own]
            conn[own] = -np.inf
            vw = graph.vweights[v]
            conn[loads + vw > max_load] = -np.inf
            target = int(conn.argmax())
            gain = conn[target] - internal
            if gain > 0 or (
                gain == 0 and loads[target] + vw < loads[own]
            ):
                assignment[v] = target
                loads[own] -= vw
                loads[target] += vw
                moves += 1
        total_moves += moves
        if moves == 0:
            break
    return total_moves
