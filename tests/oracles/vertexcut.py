"""Pre-PR-14 bodies of the HEP/NE kernels and ``replica_pairs``, verbatim.

``refine_edge_assignment`` and ``coalesce_vertex_moves`` from
``repro.partitioning.vertexcut.refine``, ``_neighborhood_expansion`` from
``repro.partitioning.vertexcut.hep`` (today's public
``neighborhood_expansion``) and the body of ``EdgePartition.replica_pairs``
exactly as they stood before the rewrite: a dense vertex x partition count
table read and written through numpy scalar indexing. Do not tidy them —
they are the reference the rewrite is pinned against (see
``tests/oracles/test_bit_identity.py``).
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = [
    "refine_edge_assignment",
    "coalesce_vertex_moves",
    "_neighborhood_expansion",
    "replica_pairs",
]


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
    the net replica change is negative and ``q`` stays under ``cap`` edges.
    """
    counts = np.zeros((num_vertices, num_partitions), dtype=np.int32)
    sub_edges = edges[edge_ids]
    sub_assign = assignment[edge_ids]
    np.add.at(counts, (sub_edges[:, 0], sub_assign), 1)
    np.add.at(counts, (sub_edges[:, 1], sub_assign), 1)
    loads = np.bincount(sub_assign, minlength=num_partitions).astype(np.int64)

    rng = np.random.default_rng(seed)
    moves = 0
    for _ in range(sweeps):
        moved_this_sweep = 0
        for eid in edge_ids[rng.permutation(edge_ids.shape[0])]:
            u, v = int(edges[eid, 0]), int(edges[eid, 1])
            p = int(assignment[eid])
            freed = int(counts[u, p] == 1) + int(counts[v, p] == 1)
            if freed == 0:
                continue  # moving away can never help
            row = counts[u] + counts[v]
            candidates = np.flatnonzero(row > 0)
            best_q, best_delta = -1, 0
            for q in candidates:
                q = int(q)
                if q == p or loads[q] >= cap:
                    continue
                created = int(counts[u, q] == 0) + int(counts[v, q] == 0)
                delta = created - freed
                if delta < best_delta or (
                    delta == best_delta
                    and best_q >= 0
                    and loads[q] < loads[best_q]
                ):
                    best_q, best_delta = q, delta
            if best_q < 0 or best_delta >= 0:
                continue
            assignment[eid] = best_q
            counts[u, p] -= 1
            counts[v, p] -= 1
            counts[u, best_q] += 1
            counts[v, best_q] += 1
            loads[p] -= 1
            loads[best_q] += 1
            moves += 1
            moved_this_sweep += 1
        if moved_this_sweep == 0:
            break
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
    movable = np.zeros(edges.shape[0], dtype=bool)
    movable[edge_ids] = True
    counts = np.zeros((num_vertices, num_partitions), dtype=np.int32)
    sub_edges = edges[edge_ids]
    sub_assign = assignment[edge_ids]
    np.add.at(counts, (sub_edges[:, 0], sub_assign), 1)
    np.add.at(counts, (sub_edges[:, 1], sub_assign), 1)
    loads = np.bincount(sub_assign, minlength=num_partitions).astype(np.int64)

    # Incidence CSR over the movable edges.
    endpoints = np.concatenate([sub_edges[:, 0], sub_edges[:, 1]])
    eids = np.concatenate([edge_ids, edge_ids])
    order = np.argsort(endpoints, kind="stable")
    endpoints_sorted = endpoints[order]
    eids_sorted = eids[order]
    vert_counts = np.bincount(endpoints_sorted, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(vert_counts, out=indptr[1:])

    rng = np.random.default_rng(seed)
    total_moves = 0
    active = np.flatnonzero((counts > 0).sum(axis=1) > 1)
    for _ in range(sweeps):
        moved_this_sweep = 0
        for v in rng.permutation(active):
            v = int(v)
            row = counts[v]
            present = np.flatnonzero(row > 0)
            if present.size < 2:
                continue
            target = int(present[row[present].argmax()])
            my_edges = eids_sorted[indptr[v] : indptr[v + 1]]
            for p in present:
                p = int(p)
                if p == target:
                    continue
                batch = my_edges[assignment[my_edges] == p]
                if batch.size == 0 or loads[target] + batch.size > cap:
                    continue
                others = np.where(
                    edges[batch, 0] == v, edges[batch, 1], edges[batch, 0]
                )
                others = others[others != v]  # ignore self loops
                freed = 1 + int((counts[others, p] == 1).sum())
                created = int((counts[others, target] == 0).sum())
                if created - freed >= 0:
                    continue
                assignment[batch] = target
                counts[v, p] = 0
                counts[v, target] += batch.size
                counts[others, p] -= 1
                counts[others, target] += 1
                loads[p] -= batch.size
                loads[target] += batch.size
                total_moves += 1
                moved_this_sweep += 1
        if moved_this_sweep == 0:
            break
    return total_moves


def _neighborhood_expansion(
    num_vertices: int,
    edges: np.ndarray,
    low_ids: np.ndarray,
    assignment: np.ndarray,
    num_partitions: int,
    cap: int,
    degrees: np.ndarray,
) -> np.ndarray:
    """Grow ``num_partitions`` partitions over the low-degree edges.

    Writes partition ids into ``assignment`` in place and returns the edge
    ids it could not place within the balance cap (to be streamed).
    """
    if low_ids.size == 0:
        return np.zeros(0, dtype=np.int64)
    # Incidence CSR over the low-degree subgraph: vertex -> incident edges.
    endpoints = np.concatenate([edges[low_ids, 0], edges[low_ids, 1]])
    eids = np.concatenate([low_ids, low_ids])
    order = np.argsort(endpoints, kind="stable")
    endpoints_sorted = endpoints[order]
    eids_sorted = eids[order]
    counts = np.bincount(endpoints_sorted, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])

    remaining = counts.astype(np.int64)  # unassigned incident low edges
    # Seeds are taken lowest-degree-first: NE grows best from the fringe.
    seed_order = np.argsort(degrees, kind="stable")
    seed_ptr = 0
    per_part_cap = max(int(low_ids.size / num_partitions), 1)
    target_cap = min(per_part_cap, cap)

    for part in range(num_partitions):
        load = 0
        heap: list[tuple[int, int]] = []
        while load < target_cap:
            # Pop the boundary vertex with fewest unassigned edges.
            vertex = -1
            while heap:
                key, candidate = heapq.heappop(heap)
                if remaining[candidate] == 0:
                    continue
                if key != remaining[candidate]:
                    heapq.heappush(
                        heap, (int(remaining[candidate]), candidate)
                    )
                    continue
                vertex = candidate
                break
            if vertex < 0:
                while (
                    seed_ptr < seed_order.size
                    and remaining[seed_order[seed_ptr]] == 0
                ):
                    seed_ptr += 1
                if seed_ptr >= seed_order.size:
                    break  # no unassigned low edges left anywhere
                vertex = int(seed_order[seed_ptr])
            # Claim every unassigned low edge of `vertex` for `part`.
            for idx in range(indptr[vertex], indptr[vertex + 1]):
                eid = eids_sorted[idx]
                if assignment[eid] >= 0:
                    continue
                assignment[eid] = part
                load += 1
                u, v = edges[eid]
                other = int(v) if int(u) == vertex else int(u)
                remaining[int(u)] -= 1
                remaining[int(v)] -= 1
                if remaining[other] > 0:
                    heapq.heappush(heap, (int(remaining[other]), other))
            remaining[vertex] = 0
    return low_ids[assignment[low_ids] < 0]


def replica_pairs(self) -> np.ndarray:
    """Unique ``(partition, vertex)`` pairs — one row per vertex replica."""
    if self._replica_pairs is None:
        part = np.concatenate([self.assignment, self.assignment])
        vert = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
        pairs = np.stack([part.astype(np.int64), vert], axis=1)
        self._replica_pairs = np.unique(pairs, axis=0)
    return self._replica_pairs
