"""Multilevel k-way partitioning machinery (METIS/KaHIP family).

The multilevel scheme has three phases:

1. *Coarsening*: repeatedly contract a heavy-edge matching until the graph
   is small.
2. *Initial partitioning*: greedy region growing on the coarsest graph.
3. *Uncoarsening*: project the partition back level by level, running a
   boundary refinement (Fiduccia-Mattheyses-style greedy gain moves) at
   every level.

Both our METIS-like and KaHIP-like partitioners drive this module; they
differ in imbalance tolerance, refinement effort and outer repetitions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "WeightedGraph",
    "coarsen",
    "initial_partition",
    "refine",
    "rebalance",
    "multilevel_partition",
    "cut_weight",
    "check_effort",
]


@dataclass
class WeightedGraph:
    """Symmetric weighted graph in CSR form with vertex weights."""

    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: np.ndarray
    ) -> "WeightedGraph":
        """Unit-weight graph from canonical undirected edges."""
        weights = np.ones(edges.shape[0], dtype=np.int64)
        return cls.from_weighted_edges(
            num_vertices,
            edges,
            weights,
            np.ones(num_vertices, dtype=np.int64),
        )

    @classmethod
    def from_weighted_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray,
        eweights: np.ndarray,
        vweights: np.ndarray,
    ) -> "WeightedGraph":
        """Build the CSR adjacency from a weighted edge list."""
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        wgt = np.concatenate([eweights, eweights])
        order = np.argsort(src, kind="stable")
        src, dst, wgt = src[order], dst[order], wgt[order]
        counts = np.bincount(src, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_vertices, indptr, dst, wgt, vweights)

    def neighbors(self, vertex: int) -> Tuple[np.ndarray, np.ndarray]:
        """Neighbour ids and edge weights of ``vertex``."""
        lo, hi = self.indptr[vertex], self.indptr[vertex + 1]
        return self.indices[lo:hi], self.eweights[lo:hi]

    @property
    def total_vertex_weight(self) -> int:
        """Sum of all vertex weights."""
        return int(self.vweights.sum())


def check_effort(epsilon: float, refine_passes: int) -> None:
    """Reject an imbalance tolerance or pass count below zero."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if refine_passes < 0:
        raise ValueError("refine_passes must be non-negative")


def _tally(bins: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Integer weight per bin (exact: ``bincount`` sums are below 2**53)."""
    return np.bincount(bins, weights=weights, minlength=size).astype(np.int64)


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
    # Number coarse vertices: one id per matched pair / singleton, in order
    # of the pair's smaller endpoint (``match`` is an involution).
    ids = np.arange(n, dtype=np.int64)
    leader = np.minimum(ids, match)
    is_leader = leader == ids
    coarse_of = (np.cumsum(is_leader) - 1)[leader]
    next_id = int(np.count_nonzero(is_leader))
    coarse_vw = _tally(coarse_of, graph.vweights, next_id)

    # Contract edges: group by coarse endpoint pair, summing weights.
    half = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    cu = coarse_of[half]
    cv = coarse_of[graph.indices]
    keep = cu < cv  # each undirected edge once; drops intra-pair edges
    key = cu[keep] * next_id + cv[keep]
    uniq, inverse = np.unique(key, return_inverse=True)
    weights = _tally(inverse, graph.eweights[keep], uniq.shape[0])
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


def cut_weight(graph: WeightedGraph, assignment: np.ndarray) -> int:
    """Total weight of edges whose endpoints differ (each edge once)."""
    half = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64),
        np.diff(graph.indptr),
    )
    cut = assignment[half] != assignment[graph.indices]
    return int(graph.eweights[cut].sum() // 2)


def rebalance(
    graph: WeightedGraph,
    assignment: np.ndarray,
    num_partitions: int,
    max_load: float,
    rng: np.random.Generator,
) -> None:
    """Force overweight partitions under ``max_load`` via cheapest moves."""
    loads = _tally(assignment, graph.vweights, num_partitions)
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
    partition with the highest gain (connectivity to it minus connectivity
    to its own partition) among those the balance cap admits; the first
    such partition wins ties. Positive-gain moves are always taken,
    zero-gain moves when they improve balance — the classic FM heuristic
    without priority queues. A pass without moves ends the refinement.

    The vertex x partition connectivity is kept in a table that every move
    updates, so a visit costs one row instead of a walk over the
    neighbourhood. Once per pass a certificate is computed in bulk: a
    vertex whose largest external connectivity is below its internal one
    has negative gain whatever the loads are, and is skipped until one of
    its neighbours moves. Edge weights must be positive. The result, the
    move count and the draws from ``rng`` are those of the plain
    neighbourhood walk (``tests/oracles``).
    """
    n, k = graph.num_vertices, num_partitions
    degrees = np.diff(graph.indptr)
    ids = np.arange(n, dtype=np.int64)
    half = np.repeat(ids, degrees)
    conn = np.bincount(
        half * k + assignment[graph.indices],
        weights=graph.eweights,
        minlength=n * k,
    )
    # (bincount of nothing is integer whatever the weights are)
    conn = conn.astype(np.float64, copy=False).reshape(n, k)
    vweights = graph.vweights.tolist()
    loads = _tally(assignment, graph.vweights, k)
    # One buffer, two views: the walk reads single flags (fast on a
    # bytearray), passes and moves write them in bulk (through numpy).
    settled = bytearray(n)
    settled_view = np.frombuffer(settled, dtype=np.bool_)
    total_moves = 0
    for _ in range(passes):
        internal = conn[ids, assignment]
        conn[ids, assignment] = -np.inf
        external = conn.max(axis=1, initial=-np.inf)
        conn[ids, assignment] = internal
        settled_view[:] = (external < internal) | (degrees == 0)
        closed = {}  # vertex weight -> -inf where the cap forbids it
        moves = 0
        for v in rng.permutation(n).tolist():
            if settled[v]:
                continue
            own = int(assignment[v])
            vw = vweights[v]
            penalty = closed.get(vw)
            if penalty is None:
                penalty = closed[vw] = np.where(
                    loads + vw > max_load, -np.inf, 0.0
                )
            row = conn[v] + penalty
            row[own] = -np.inf
            target = int(row.argmax())
            gain = row[target] - conn[v, own]
            if gain > 0 or (
                gain == 0 and loads[target] + vw < loads[own]
            ):
                nbrs, wgts = graph.neighbors(v)
                # ``at``: a self loop lists ``v`` twice among ``nbrs``.
                np.subtract.at(conn, (nbrs, own), wgts)
                np.add.at(conn, (nbrs, target), wgts)
                settled_view[nbrs] = False
                assignment[v] = target
                loads[own] -= vw
                loads[target] += vw
                closed.clear()
                moves += 1
        total_moves += moves
        if moves == 0:
            break
    return total_moves


def multilevel_partition(
    graph: WeightedGraph,
    num_partitions: int,
    epsilon: float,
    refine_passes: int,
    seed: int,
    coarsest_size: int = 0,
) -> np.ndarray:
    """Full multilevel k-way partition of a weighted undirected graph."""
    rng = np.random.default_rng(seed)
    if coarsest_size <= 0:
        coarsest_size = max(30 * num_partitions, 200)

    levels: List[Tuple[WeightedGraph, np.ndarray]] = []
    current = graph
    while current.num_vertices > coarsest_size:
        coarse, mapping = coarsen(current, rng)
        if coarse.num_vertices >= current.num_vertices * 0.95:
            break  # matching stagnated (e.g. star graphs)
        levels.append((current, mapping))
        current = coarse

    assignment = initial_partition(current, num_partitions, rng)
    max_load = (1.0 + epsilon) * current.total_vertex_weight / num_partitions
    rebalance(current, assignment, num_partitions, max_load, rng)
    refine(current, assignment, num_partitions, max_load, refine_passes, rng)

    for fine, mapping in reversed(levels):
        assignment = assignment[mapping]
        max_load = (1.0 + epsilon) * fine.total_vertex_weight / num_partitions
        rebalance(fine, assignment, num_partitions, max_load, rng)
        refine(fine, assignment, num_partitions, max_load, refine_passes, rng)
    return assignment.astype(np.int32)
