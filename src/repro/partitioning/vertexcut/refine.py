"""Greedy replica-reducing refinement for in-memory edge partitions.

Used by HEP's in-memory phase (and NE): edges move to the partition that
frees the most vertex replicas, under an edge balance cap — the local
optimisation an in-memory partitioner can afford and a streaming one
cannot. :func:`refine_replicas` runs two rounds of an edge pass then a
coalesce pass, greedy walks in a seeded random order, on one
:class:`ReplicaState`. After a sweep's permutation draw, a pass flags in
bulk, from the edge counts of the distinct ``vertex * k + partition``
pairs and a per-vertex partition bitset (:meth:`ReplicaState._snapshot`;
O(|E|) plus ``ceil(k / 32)`` words a vertex), the entries whose visit
could move anything if no partition were full (loads only remove moves).
The walk visits, in order, only those and the later entries a move can
help; every other visit is a no-op of the full walk, so assignments,
move counts and random draws are the full walks' (kept verbatim in
``tests/oracles``).

* **Edge pass.** An edge moves only if an endpoint is alone in its
  partition and another partition holds both endpoints (either, when
  both are alone). Moving ``i`` from ``p`` to ``q`` changes only its
  endpoints' counts, and helps an edge of endpoint ``x`` only if ``x``
  is left with one edge in ``p`` (that edge frees more) or is newly in
  ``q`` (its edges gain a target); any other change only hurts.
* **Coalesce pass.** A vertex moves a batch only if a minority batch has
  a negative net replica change. After ``v``'s batch moves ``p -> t``
  with other endpoints ``O``, only the counts of ``v`` and ``O`` change,
  so a batch gains only where ``freed`` grows (the vertex across the
  last ``p``-edge of an ``o`` left with one) or ``created`` shrinks (the
  neighbours of an ``o`` newly in ``t``); those and ``O`` are
  re-evaluated.

Each pass recounts the loads when it starts, as the full walks did (a
self loop sits twice in a coalesced batch, so loads drift within a
pass). ``edges`` must hold canonical (distinct) rows.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from heapq import heappop, heappush
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["refine_replicas", "ReplicaState", "incidence"]


def _replica_counts(
    keys: np.ndarray, counts: np.ndarray, num_vertices: int, k: int
) -> List[Dict[int, int]]:
    """Per vertex ``{partition: incident edges there}`` from the distinct
    ``vertex * k + partition`` keys and their counts."""
    owners, present = np.divmod(keys, k)
    replicas: List[Dict[int, int]] = [{} for _ in range(num_vertices)]
    for v, p, c in zip(*(a.tolist() for a in (owners, present, counts))):
        replicas[v][p] = c
    return replicas


def _distinct(keys: np.ndarray, size: int) -> Tuple[np.ndarray, ...]:
    """``np.unique(keys, return_inverse=True, return_counts=True)`` for
    keys in ``[0, size)``: by a count table when ``size <= 4 keys.size``
    (so memory stays O(``keys.size``)), else by sorting."""
    if size > 4 * keys.size:
        return np.unique(keys, return_inverse=True, return_counts=True)
    table = np.bincount(keys, minlength=size)
    distinct = np.flatnonzero(table)
    index = np.empty(size, dtype=np.int64)  # read only where filled
    index[distinct] = np.arange(distinct.size)
    return distinct, index[keys], table[distinct]


def _move_replica(counts: Dict[int, int], source: int, target: int) -> None:
    """One incident edge goes ``source -> target``; absent means zero."""
    if counts[source] == 1:
        del counts[source]
    else:
        counts[source] -= 1
    counts[target] = counts.get(target, 0) + 1


def _positions(order: np.ndarray, size: int) -> List[int]:
    """Position of each entry in ``order``; -1 for entries not in it."""
    position = np.full(size, -1, dtype=np.int64)
    position[order] = np.arange(order.shape[0])
    return position.tolist()


def incidence(
    sub_edges: np.ndarray, num_vertices: int
) -> Tuple[List[int], List[int]]:
    """CSR ``vertex -> positions of its incident edges`` (loops twice)."""
    endpoints = np.concatenate([sub_edges[:, 0], sub_edges[:, 1]])
    order = np.argsort(endpoints, kind="stable")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(endpoints, minlength=num_vertices), out=indptr[1:])
    return indptr.tolist(), (order % max(sub_edges.shape[0], 1)).tolist()


def refine_replicas(
    edges: np.ndarray, assignment: np.ndarray, edge_ids: np.ndarray,
    num_vertices: int, num_partitions: int, cap: int, seed: int = 0,
) -> None:
    """HEP's in-memory refinement: two rounds (``seed``, ``seed + 1``)
    of :meth:`ReplicaState.refine_edges` then :meth:`ReplicaState.coalesce`,
    two sweeps each, on one state. Only ``edge_ids`` move; ``assignment``
    is modified in place."""
    state = ReplicaState(
        edges, assignment, edge_ids, num_vertices, num_partitions, cap
    )
    for round_seed in (seed, seed + 1):
        state.refine_edges(sweeps=2, seed=round_seed)
        state.coalesce(sweeps=2, seed=round_seed)


class ReplicaState:
    """Replica counts, incidence and partitions of the movable edges.

    Edges are named by their position in ``edge_ids``. ``part`` is an
    int64 ``array``: the walks index it, the snapshots read it without a
    copy, and each pass writes it to ``assignment[edge_ids]`` at its end.
    """

    def __init__(
        self, edges: np.ndarray, assignment: np.ndarray, edge_ids: np.ndarray,
        num_vertices: int, num_partitions: int, cap: int,
    ) -> None:
        sub_edges = edges[edge_ids]
        self.assignment, self.edge_ids = assignment, edge_ids
        self.n, self.k, self.cap = num_vertices, num_partitions, cap
        self.indptr, self.incident = incidence(sub_edges, num_vertices)
        self.us, self.vs = sub_edges[:, 0].tolist(), sub_edges[:, 1].tolist()
        # Both endpoint columns, then the opposite endpoint of each.
        self.ends = sub_edges.T.astype(np.int64).ravel()
        self.others = np.roll(self.ends, sub_edges.shape[0])
        self.part = array("q", assignment[edge_ids].tolist())
        keys, _, counts, _ = self._snapshot()
        self.replicas = _replica_counts(keys, counts, num_vertices, self.k)

    def _loads(self) -> List[int]:
        """Edges per partition, recounted from the assignment."""
        return np.bincount(
            np.frombuffer(self.part, np.int64), minlength=self.k
        ).tolist()

    def _snapshot(self) -> Tuple[np.ndarray, ...]:
        """:func:`_distinct` of the ``vertex * k + partition`` pair of each
        entry of ``ends``, and each vertex's partitions as a bitset of
        32-bit words (``n x ceil(k / 32)``): ``keys, pair, counts, bits``."""
        part = np.frombuffer(self.part, np.int64)
        keys, pair, counts = _distinct(
            self.ends * self.k + np.tile(part, 2), self.n * self.k
        )
        words = (self.k + 31) // 32
        owner, p = np.divmod(keys, self.k)
        # Distinct bits of a word add up exactly in float64.
        bits = np.bincount(
            owner * words + p // 32, 2.0 ** (p % 32), self.n * words
        )
        return keys, pair, counts, bits.astype(np.int64).reshape(-1, words)

    def _movable_edges(self) -> np.ndarray:
        """Edges that would move if no partition were full: an endpoint is
        alone in the edge's partition and another partition holds both
        endpoints (or, when both are alone, either)."""
        keys, pair, counts, bits = self._snapshot()
        alone_u, alone_v = np.split(counts[pair] == 1, 2)
        alone = np.flatnonzero(alone_u | alone_v)
        in_u, in_v = bits[self.ends[alone]], bits[self.others[alone]]
        targets = np.where(
            (alone_u & alone_v)[alone, None], in_u | in_v, in_u & in_v
        )
        p = keys[pair[alone]] % self.k
        targets[np.arange(alone.size), p // 32] &= ~(1 << (p % 32))
        movable = np.zeros(alone_u.shape[0], dtype=bool)
        movable[alone[targets.any(axis=1)]] = True
        return movable

    def _movable_vertices(self) -> np.ndarray:
        """Vertices with a minority batch of negative net replica change,
        cap ignored: ``created - freed < 0`` with ``freed = 1 + sum(f)``,
        summed over the batch's edges ``(w, o)``, loops aside."""
        k, ends, others = self.k, self.ends, self.others
        keys, pair, counts, bits = self._snapshot()
        # Each vertex's target pair: most edges, then lowest id.
        owner = keys // k
        heads = np.flatnonzero(np.diff(owner, prepend=-1))
        score = counts * keys.size - np.arange(keys.size)
        best = np.zeros(self.n, dtype=np.int64)
        best[owner[heads]] = -np.maximum.reduceat(score, heads) % keys.size
        target = best[ends]
        e = np.flatnonzero((ends != others) & (pair != target))
        t = keys[target[e]] % k
        created = ((bits[others[e], t // 32] >> (t % 32)) & 1) == 0
        # The other end of the same edge (negative indices wrap).
        freed = counts[pair[e - pair.size // 2]] == 1
        net = np.bincount(pair[e], created.astype(np.int8) - freed, keys.size)
        batch = net <= 0
        batch[target] = False
        movable = np.zeros(self.n, dtype=bool)
        movable[owner[batch]] = True
        return movable

    def refine_edges(self, sweeps: int, seed: int) -> int:
        """Move single edges to reduce replicas; returns the move count.

        Moving ``(u, v)`` from ``p`` to ``q`` frees a replica for each
        endpoint whose only edge in ``p`` it was and creates one for each
        endpoint absent from ``q``; it is made when the net change is
        negative and ``q`` is under ``cap``, to the least loaded, then
        lowest, of the best targets."""
        replicas, loads, cap = self.replicas, self._loads(), self.cap
        us, vs, part = self.us, self.vs, self.part
        indptr, incident = self.indptr, self.incident
        rng = np.random.default_rng(seed)
        moves = 0
        for _ in range(sweeps):
            before = moves
            permuted = rng.permutation(len(part))
            position = None  # built on the first re-evaluation
            heap = np.flatnonzero(self._movable_edges()[permuted]).tolist()
            last = -1
            while heap:
                step = heappop(heap)
                if step == last:
                    continue
                last = step
                i = permuted.item(step)
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
                best = min(
                    (((q not in at_u) + (q not in at_v), loads[q], q)
                     for q in candidates if q != p and loads[q] < cap),
                    default=None,
                )
                if best is None:
                    continue
                q = best[2]
                _move_replica(at_u, p, q)
                _move_replica(at_v, p, q)
                part[i] = q
                loads[p] -= 1
                loads[q] += 1
                moves += 1
                # Re-evaluate whichever later edge this move can help.
                for x, at_x in ((us[i], at_u), (vs[i], at_v)):
                    alone, arrived = at_x.get(p) == 1, at_x[q] == 1
                    if not (alone or arrived):
                        continue
                    if position is None:
                        position = _positions(permuted, len(part))
                    for j in incident[indptr[x] : indptr[x + 1]]:
                        if (arrived or part[j] == p) and position[j] > step:
                            heappush(heap, position[j])
            if moves == before:
                break
        self.assignment[self.edge_ids] = np.frombuffer(part, np.int64)
        return moves

    def coalesce(self, sweeps: int, seed: int) -> int:
        """Evacuate vertices' minority partitions; returns the bulk moves.

        Where :meth:`refine_edges` is stuck on a vertex with several edges
        in a partition, this moves *all* of them into its strongest
        partition at once, when the net change is negative and the cap
        allows."""
        replicas, loads, cap = self.replicas, self._loads(), self.cap
        us, vs, part = self.us, self.vs, self.part
        indptr, incident = self.indptr, self.incident
        rng = np.random.default_rng(seed)
        moves = 0
        active = np.flatnonzero([len(mine) > 1 for mine in replicas])
        for _ in range(sweeps):
            before = moves
            order = rng.permutation(active)
            position = _positions(order, self.n)
            heap = np.flatnonzero(self._movable_vertices()[order]).tolist()
            order = order.tolist()
            last = -1
            while heap:
                step = heappop(heap)
                if step == last:
                    continue
                last = step
                v = order[step]
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
                    batch = batches[p]
                    if p == target or loads[target] + len(batch) > cap:
                        continue
                    # The batch's other endpoints, loops aside.
                    others = [us[i] + vs[i] - v for i in batch]
                    others = [o for o in others if o != v]
                    freed = 1 + sum(replicas[o][p] == 1 for o in others)
                    created = sum(target not in replicas[o] for o in others)
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
                    moves += 1
                    # Re-evaluate whoever this move can help (see module doc).
                    touched = list(others)
                    for o in others:
                        at_o = replicas[o]
                        alone, arrived = at_o.get(p) == 1, at_o[target] == 1
                        if not (alone or arrived):
                            continue
                        for i in incident[indptr[o] : indptr[o + 1]]:
                            if arrived or part[i] == p:
                                touched.append(us[i] + vs[i] - o)
                    for w in touched:
                        if position[w] > step:
                            heappush(heap, position[w])
            if moves == before:
                break
        self.assignment[self.edge_ids] = np.frombuffer(part, np.int64)
        return moves
