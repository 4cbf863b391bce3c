"""Greedy replica-reducing refinement for in-memory edge partitions.

Used by HEP's in-memory phase: after neighbourhood expansion, edges are
re-visited and moved to the partition that frees the most vertex replicas,
subject to an edge balance cap. This is the kind of local optimisation an
in-memory partitioner can afford and a streaming partitioner cannot — it is
what separates the "high-quality" partitioners in the paper.

Both passes are sequential greedy walks in a seeded random order. Their
state — per vertex the partitions it is replicated to with the number of
incident edges in each, partition loads, the current partition of every
movable edge — lives in plain Python containers of O(|E| + |V|) total
size, so a visit costs dictionary look-ups instead of numpy calls on
length-k rows. ``edges`` must hold canonical (distinct) rows.
``tests/oracles`` keeps the row-scanning originals; assignments, move
counts and random draws are pinned equal to them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["refine_edge_assignment", "coalesce_vertex_moves", "incidence"]


def _replica_counts(
    sub_edges: np.ndarray,
    parts: np.ndarray,
    num_vertices: int,
    num_partitions: int,
) -> List[Dict[int, int]]:
    """Per vertex ``{partition: incident edges there}`` (self loops twice)."""
    endpoints = np.concatenate([sub_edges[:, 0], sub_edges[:, 1]])
    keys, counts = np.unique(
        endpoints * num_partitions + np.concatenate([parts, parts]),
        return_counts=True,
    )
    owners, present = np.divmod(keys, num_partitions)
    bounds = np.searchsorted(owners, np.arange(num_vertices + 1)).tolist()
    present, counts = present.tolist(), counts.tolist()
    return [
        dict(zip(present[lo:hi], counts[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _move_replica(counts: Dict[int, int], source: int, target: int) -> None:
    """One incident edge goes ``source -> target``; absent means zero."""
    if counts[source] == 1:
        del counts[source]
    else:
        counts[source] -= 1
    counts[target] = counts.get(target, 0) + 1


def incidence(
    sub_edges: np.ndarray, num_vertices: int
) -> Tuple[List[int], List[int]]:
    """CSR ``vertex -> positions of its incident edges`` (loops twice)."""
    endpoints = np.concatenate([sub_edges[:, 0], sub_edges[:, 1]])
    order = np.argsort(endpoints, kind="stable")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=num_vertices), out=indptr[1:])
    return indptr.tolist(), (order % max(sub_edges.shape[0], 1)).tolist()


def refine_edge_assignment(
    edges: np.ndarray,
    assignment: np.ndarray,
    edge_ids: np.ndarray,
    num_vertices: int,
    num_partitions: int,
    cap: int,
    sweeps: int = 2,
    seed: int = 0,
) -> int:
    """Greedily move edges between partitions to reduce vertex replicas.

    Only edges listed in ``edge_ids`` are moved; ``assignment`` is modified
    in place (entries must be valid for all ``edge_ids``). Returns the
    number of moves performed.

    A move of edge ``(u, v)`` from partition ``p`` to ``q`` frees a replica
    for each endpoint whose *only* edge in ``p`` was this edge, and creates
    one for each endpoint not yet present in ``q``. Moves are applied when
    the net replica change is negative and ``q`` stays under ``cap`` edges;
    among the best targets the least loaded, then the lowest id, wins.
    """
    sub_edges = edges[edge_ids]
    parts = assignment[edge_ids]
    replicas = _replica_counts(sub_edges, parts, num_vertices, num_partitions)
    loads = np.bincount(parts, minlength=num_partitions).tolist()
    us, vs = sub_edges[:, 0].tolist(), sub_edges[:, 1].tolist()
    part = parts.tolist()

    rng = np.random.default_rng(seed)
    moves = 0
    for _ in range(sweeps):
        moved_this_sweep = 0
        for i in rng.permutation(len(part)).tolist():
            p = part[i]
            at_u, at_v = replicas[us[i]], replicas[vs[i]]
            freed = (at_u[p] == 1) + (at_v[p] == 1)
            if freed == 0:
                continue  # moving away can never help
            # Net change is negative only where both endpoints already
            # are, or, when the move frees both, where either is.
            if freed == 2:
                candidates = at_u.keys() | at_v.keys()
            else:
                candidates = at_u.keys() & at_v.keys()
            best = None
            for q in candidates:
                if q == p or loads[q] >= cap:
                    continue
                rank = ((q not in at_u) + (q not in at_v), loads[q], q)
                if best is None or rank < best:
                    best = rank
            if best is None:
                continue
            q = best[2]
            _move_replica(at_u, p, q)
            _move_replica(at_v, p, q)
            part[i] = q
            loads[p] -= 1
            loads[q] += 1
            moves += 1
            moved_this_sweep += 1
        if moved_this_sweep == 0:
            break
    assignment[edge_ids] = part
    return moves


def coalesce_vertex_moves(
    edges: np.ndarray,
    assignment: np.ndarray,
    edge_ids: np.ndarray,
    num_vertices: int,
    num_partitions: int,
    cap: int,
    sweeps: int = 2,
    seed: int = 0,
) -> int:
    """Vertex-level refinement: evacuate a vertex's minority partitions.

    Where :func:`refine_edge_assignment` moves one edge at a time (and gets
    stuck when a vertex has several edges in a partition — no single move
    frees the replica), this pass moves *all* edges a vertex has in one
    partition into its strongest partition at once, when the net replica
    change is negative and the balance cap allows. Returns the number of
    bulk moves performed.
    """
    sub_edges = edges[edge_ids]
    parts = assignment[edge_ids]
    replicas = _replica_counts(sub_edges, parts, num_vertices, num_partitions)
    loads = np.bincount(parts, minlength=num_partitions).tolist()
    indptr, incident = incidence(sub_edges, num_vertices)
    us, vs = sub_edges[:, 0].tolist(), sub_edges[:, 1].tolist()
    part = parts.tolist()

    rng = np.random.default_rng(seed)
    total_moves = 0
    active = np.array(
        [v for v, mine in enumerate(replicas) if len(mine) > 1],
        dtype=np.int64,
    )
    for _ in range(sweeps):
        moved_this_sweep = 0
        for v in rng.permutation(active).tolist():
            mine = replicas[v]
            if len(mine) < 2:
                continue
            present = sorted(mine)
            target = max(present, key=mine.__getitem__)
            # Group the incident edges by partition in one pass.
            batches: Dict[int, List[int]] = defaultdict(list)
            for i in incident[indptr[v] : indptr[v + 1]]:
                batches[part[i]].append(i)
            for p in present:
                batch = batches.get(p)
                if (
                    p == target
                    or not batch
                    or loads[target] + len(batch) > cap
                ):
                    continue
                others = [vs[i] if us[i] == v else us[i] for i in batch]
                others = [o for o in others if o != v]  # ignore self loops
                freed, created = 1, 0
                for o in others:
                    freed += replicas[o][p] == 1
                    created += target not in replicas[o]
                if created - freed >= 0:
                    continue
                for i in batch:
                    part[i] = target
                del mine[p]
                mine[target] += len(batch)
                for o in others:
                    _move_replica(replicas[o], p, target)
                loads[p] -= len(batch)
                loads[target] += len(batch)
                total_moves += 1
                moved_this_sweep += 1
        if moved_this_sweep == 0:
            break
    assignment[edge_ids] = part
    return total_moves
