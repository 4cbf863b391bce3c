"""2PS-L: Two-Phase Streaming with Linear run-time.

Mayer, Orujzade, Jacobsen, ICDE 2022. Phase one streams the edges and
greedily merges endpoints into volume-capped clusters; phase two packs
clusters onto partitions and streams the edges again, assigning each edge
to the partition of its endpoints' clusters (tie-broken by load).

The paper's key empirical observation about 2PS-L — low replication factor
but *large vertex imbalance* (Figure 4), which hurts its speedup (Figure 8)
— emerges here naturally: clustering co-locates whole communities, so some
partitions cover far more distinct vertices than others.

Both phases are inherently sequential (a volume-capped union-find and a
load-capped greedy), so unlike HDRF there is no chunk semantics to
introduce: the fast paths below (plain-python union-find state, batch
precomputation of each edge's candidate partitions) implement *exactly*
the classic per-edge rules and are bit-identical to the retained
reference loops by construction (still equivalence-tested).

Both phases consume the stream through a re-iterable *block factory*, so
the same code drives the in-memory path (one block: the full edge array)
and the out-of-core path (the chunks of an on-disk spool) — which is what
makes the two paths bit-identical for the same stream order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Tuple

import numpy as np

from ...graph import Graph
from ...graph.chunkstore import EdgeChunkReader
from ..base import EdgePartitioner
from ..outofcore import stream_degrees

__all__ = ["TwoPsLPartitioner"]

#: A callable returning a fresh iterable over the edge blocks of the
#: stream (phase one iterates the stream twice).
BlockFactory = Callable[[], Iterable[np.ndarray]]


class TwoPsLPartitioner(EdgePartitioner):
    """Two-Phase Streaming (2PS-L): clustering pass then placement pass."""
    name = "2PS-L"
    category = "stateful streaming"
    supports_stream = True

    def __init__(
        self,
        balance_cap: float = 1.05,
        vectorised: bool = True,
        shuffle_stream: bool = True,
    ) -> None:
        super().__init__()
        self.balance_cap = balance_cap
        # ``vectorised=False`` runs the retained scalar reference loops
        # (identical output; used by equivalence tests and benchmarks).
        self.vectorised = vectorised
        # ``shuffle_stream=False`` streams edges in their given order
        # instead of a seeded permutation — the order the out-of-core
        # path necessarily uses.
        self.shuffle_stream = shuffle_stream

    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        if self.shuffle_stream:
            rng = np.random.default_rng(seed)
            order = rng.permutation(edges.shape[0])
            streamed = edges[order]
        else:
            order = None
            streamed = edges
        degrees = graph.degrees()
        num_edges = edges.shape[0]
        if self.vectorised:
            factory: BlockFactory = lambda: (streamed,)
            clusters = self._cluster_blocks(
                degrees, graph.num_vertices, factory,
                num_edges, num_partitions,
            )
            cluster_to_part = self._pack_clusters(
                clusters, degrees, num_partitions
            )
            placed = np.concatenate(
                [
                    block_assignment
                    for _, block_assignment in self._place_blocks(
                        factory, clusters, cluster_to_part,
                        num_partitions, degrees, num_edges,
                    )
                ]
            )
        else:
            clusters = self._cluster_reference(
                graph, streamed, num_edges, num_partitions
            )
            cluster_to_part = self._pack_clusters(
                clusters, degrees, num_partitions
            )
            placed = self._place_reference(
                streamed, clusters, cluster_to_part, num_partitions, degrees
            )
        if order is None:
            return placed
        assignment = np.empty(num_edges, dtype=np.int32)
        assignment[order] = placed
        return assignment

    def _assign_stream(
        self, reader: EdgeChunkReader, num_partitions: int, seed: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Four store passes: degrees, two clustering streams, placement.
        degrees = stream_degrees(reader)
        clusters = self._cluster_blocks(
            degrees, reader.num_vertices, reader.iter_chunks,
            reader.num_edges, num_partitions,
        )
        cluster_to_part = self._pack_clusters(
            clusters, degrees, num_partitions
        )
        return self._place_blocks(
            reader.iter_chunks, clusters, cluster_to_part,
            num_partitions, degrees, reader.num_edges,
        )

    # ------------------------------------------------------------------
    # Phase 1: streaming clustering with per-cluster volume cap.
    #
    # Volume of a cluster = sum of (full) degrees of its members; capped
    # at the average partition volume ``2|E|/k`` so no cluster exceeds
    # one partition. Clusters are merged with a union-find structure
    # (2PS-L restreams instead, but the resulting communities are the
    # same; we restream once more to let late singletons join).
    # ------------------------------------------------------------------
    def _cluster_blocks(
        self,
        degrees: np.ndarray,
        num_vertices: int,
        blocks: BlockFactory,
        num_edges: int,
        num_partitions: int,
    ) -> np.ndarray:
        """Union-find on plain-python state; scalar array indexing in the
        inner loop costs ~10x more than list indexing, and the merge
        sequence itself cannot be batched. Final roots are resolved by
        vectorised pointer jumping. Output is bit-identical to
        :meth:`_cluster_reference` for the same stream order."""
        cap = max(int(2 * num_edges / num_partitions), 2)
        parent = list(range(num_vertices))
        volume = degrees.astype(np.int64).tolist()

        for _ in range(2):  # one clustering pass + one restream pass
            for block in blocks():
                for u, v in block.tolist():
                    ru = u
                    while parent[ru] != ru:
                        parent[ru] = parent[parent[ru]]  # path halving
                        ru = parent[ru]
                    rv = v
                    while parent[rv] != rv:
                        parent[rv] = parent[parent[rv]]
                        rv = parent[rv]
                    if ru == rv:
                        continue
                    if volume[ru] + volume[rv] <= cap:
                        small, large = (
                            (ru, rv) if volume[ru] <= volume[rv] else (rv, ru)
                        )
                        parent[small] = large
                        volume[large] += volume[small]
        roots = np.asarray(parent, dtype=np.int64)
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
        # Compact root ids to 0..C-1.
        _, cluster_of = np.unique(roots, return_inverse=True)
        return cluster_of.astype(np.int64)

    def _cluster_reference(
        self,
        graph: Graph,
        streamed: np.ndarray,
        num_edges: int,
        num_partitions: int,
    ) -> np.ndarray:
        """Retained scalar reference for :meth:`_cluster_blocks`."""
        degrees = graph.degrees().astype(np.int64)
        cap = max(int(2 * num_edges / num_partitions), 2)
        parent = np.arange(graph.num_vertices, dtype=np.int64)
        volume = degrees.copy()  # every vertex starts as its own cluster

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]  # path halving
                x = int(parent[x])
            return x

        for _ in range(2):
            for u, v in streamed:
                ru, rv = find(int(u)), find(int(v))
                if ru == rv:
                    continue
                if volume[ru] + volume[rv] <= cap:
                    small, large = (
                        (ru, rv) if volume[ru] <= volume[rv] else (rv, ru)
                    )
                    parent[small] = large
                    volume[large] += volume[small]
        roots = np.array(
            [find(int(v)) for v in range(graph.num_vertices)],
            dtype=np.int64,
        )
        _, cluster_of = np.unique(roots, return_inverse=True)
        return cluster_of.astype(np.int64)

    def _pack_clusters(
        self,
        cluster_of: np.ndarray,
        degrees: np.ndarray,
        num_partitions: int,
    ) -> np.ndarray:
        """Phase 2a: largest-first bin packing of clusters by volume."""
        degrees = degrees.astype(np.int64)
        num_clusters = int(cluster_of.max()) + 1 if cluster_of.size else 0
        volume = np.zeros(max(num_clusters, 1), dtype=np.int64)
        member_mask = cluster_of >= 0
        np.add.at(volume, cluster_of[member_mask], degrees[member_mask])
        mapping = np.zeros(max(num_clusters, 1), dtype=np.int32)
        loads = np.zeros(num_partitions, dtype=np.int64)
        for cluster in np.argsort(-volume):
            target = int(loads.argmin())
            mapping[cluster] = target
            loads[target] += volume[cluster]
        return mapping

    # ------------------------------------------------------------------
    # Phase 2b: stream edges, assign via cluster->partition map.
    #
    # When the endpoints' clusters sit on different partitions, the edge
    # follows the *lower-degree* endpoint (as in HDRF/DBH: keep
    # low-degree vertices whole, replicate hubs), subject to the balance
    # cap.
    # ------------------------------------------------------------------
    def _place_blocks(
        self,
        blocks: BlockFactory,
        cluster_of: np.ndarray,
        cluster_to_part: np.ndarray,
        num_partitions: int,
        degrees: np.ndarray,
        num_edges: int,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Each edge's candidate partitions (preferred, then spill) are
        pure functions of the static cluster map, so they are computed
        per block in one numpy pass; the remaining per-edge work is the
        load-cap bookkeeping, kept in plain-python state persisting
        across blocks. Output is bit-identical to
        :meth:`_place_reference` for the same stream order."""
        cap = int(self.balance_cap * num_edges / num_partitions) + 1
        k = num_partitions
        loads = [0] * k
        for block in blocks():
            pu = cluster_to_part[cluster_of[block[:, 0]]]
            pv = cluster_to_part[cluster_of[block[:, 1]]]
            u_first = degrees[block[:, 0]] <= degrees[block[:, 1]]
            first = np.where(u_first, pu, pv).tolist()
            second = np.where(u_first, pv, pu).tolist()
            out = np.empty(block.shape[0], dtype=np.int32)
            for i in range(len(first)):
                target = first[i]
                if loads[target] >= cap:
                    target = second[i]
                    if loads[target] >= cap:
                        target = min(range(k), key=loads.__getitem__)
                out[i] = target
                loads[target] += 1
            yield block, out

    def _place_reference(
        self,
        streamed: np.ndarray,
        cluster_of: np.ndarray,
        cluster_to_part: np.ndarray,
        num_partitions: int,
        degrees: np.ndarray,
    ) -> np.ndarray:
        """Retained scalar reference for :meth:`_place_blocks`."""
        cap = int(self.balance_cap * streamed.shape[0] / num_partitions) + 1
        loads = np.zeros(num_partitions, dtype=np.int64)
        assignment = np.empty(streamed.shape[0], dtype=np.int32)
        for i, (u, v) in enumerate(streamed):
            u, v = int(u), int(v)
            pu = int(cluster_to_part[cluster_of[u]])
            pv = int(cluster_to_part[cluster_of[v]])
            if pu == pv:
                target = pu if loads[pu] < cap else int(loads.argmin())
            else:
                first, second = (
                    (pu, pv) if degrees[u] <= degrees[v] else (pv, pu)
                )
                if loads[first] < cap:
                    target = first
                elif loads[second] < cap:
                    target = second
                else:
                    target = int(loads.argmin())
            assignment[i] = target
            loads[target] += 1
        return assignment