"""2PS-L: Two-Phase Streaming with Linear run-time.

Mayer, Orujzade, Jacobsen, ICDE 2022. Phase one streams the edges and
greedily merges endpoints into volume-capped clusters; phase two packs
clusters onto partitions and streams the edges again, assigning each edge
to the partition of its endpoints' clusters (tie-broken by load).

The paper's key empirical observation about 2PS-L — low replication factor
but *large vertex imbalance* (Figure 4), which hurts its speedup (Figure 8)
— emerges here naturally: clustering co-locates whole communities, so some
partitions cover far more distinct vertices than others.

Both phases are sequential per-edge rules (a volume-capped union-find and
a load-capped greedy) over *monotone* state: clusters only merge, volumes
and loads only grow. So each phase evaluates a slice of
:data:`_SLICE_EDGES` edges against the state at the slice's start in a
few numpy passes and visits one by one only the edges that snapshot
cannot settle (why that is exact is in the two phases' docstrings; the
per-edge loops it is pinned against live in ``tests/oracles/twops.py``).

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

#: Edges evaluated against one state snapshot. Shorter slices see
#: fresher state (fewer edges reach the per-edge loops) but pay the fixed
#: cost of the numpy passes more often; independent of the store's chunk
#: size, so the in-memory single-block path is sliced too.
_SLICE_EDGES = 4096


def _slices(block: np.ndarray) -> Iterator[np.ndarray]:
    for start in range(0, block.shape[0], _SLICE_EDGES):
        yield block[start : start + _SLICE_EDGES]


def _follow(roots: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Jump along ``roots`` from ``found`` until every entry is a root."""
    while True:
        jumped = roots[found]
        if np.array_equal(jumped, found):
            return found
        found = jumped


class TwoPsLPartitioner(EdgePartitioner):
    """Two-Phase Streaming (2PS-L): clustering pass then placement pass."""
    name = "2PS-L"
    category = "stateful streaming"
    supports_stream = True

    def __init__(
        self,
        balance_cap: float = 1.05,
        shuffle_stream: bool = True,
    ) -> None:
        super().__init__()
        if balance_cap < 1:
            raise ValueError("balance_cap must be at least 1")
        self.balance_cap = balance_cap
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
        factory: BlockFactory = lambda: (streamed,)
        clusters = self._cluster_blocks(
            degrees, graph.num_vertices, factory, num_edges, num_partitions
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
        """Volume-capped union-find over the stream, twice.

        The forest lives in two numpy arrays: ``roots[x]`` points towards
        the root of ``x``'s cluster (roots point at themselves) and
        ``vol[r]`` is the volume of the cluster rooted at ``r``. Per
        slice, every endpoint's root is resolved by pointer jumping and
        only edges that could merge *at that snapshot* — different roots,
        joint volume within the cap — go to :meth:`_merge_edges`. That
        drops no merge: two vertices in one cluster stay in one cluster,
        and a vertex's cluster never shrinks, so a pair over the cap stays
        over it. Which vertex roots a cluster is decided by merges alone,
        so the root ids, and with them ``np.unique``'s numbering, are
        those of the edge-by-edge loop.
        """
        cap = max(int(2 * num_edges / num_partitions), 2)
        roots = np.arange(num_vertices, dtype=np.int64)
        vol = degrees.astype(np.int64)

        for _ in range(2):  # one clustering pass + one restream pass
            for block in blocks():
                for ends in _slices(block):
                    found = _follow(roots, roots[ends])
                    roots[ends] = found  # shorten the next lookup
                    vols = vol[found]
                    mergeable = np.flatnonzero(
                        (found[:, 0] != found[:, 1])
                        & (vols[:, 0] + vols[:, 1] <= cap)
                    )
                    if mergeable.size:
                        self._merge_edges(
                            found[mergeable].tolist(),
                            vols[mergeable].tolist(),
                            cap, roots, vol,
                        )
        # Compact root ids to 0..C-1.
        _, cluster_of = np.unique(
            _follow(roots, roots), return_inverse=True
        )
        return cluster_of.astype(np.int64)

    @staticmethod
    def _merge_edges(
        edge_roots: list,
        edge_volumes: list,
        cap: int,
        roots: np.ndarray,
        vol: np.ndarray,
    ) -> None:
        """Apply the merge rule edge by edge to one slice's candidates.

        ``edge_roots`` / ``edge_volumes`` hold each candidate's two roots
        and their volumes as of the slice's start; ``merged_into`` and
        ``grown`` carry what the slice has changed since, and are written
        back to ``roots`` / ``vol`` at the end.
        """
        merged_into: dict = {}
        grown: dict = {}
        for (ru, rv), (vol_u, vol_v) in zip(edge_roots, edge_volumes):
            while ru in merged_into:
                ru = merged_into[ru]
            while rv in merged_into:
                rv = merged_into[rv]
            if ru == rv:
                continue
            # A root reached through ``merged_into`` absorbed a cluster
            # in this slice, so ``grown`` has it.
            vol_u = grown.get(ru, vol_u)
            vol_v = grown.get(rv, vol_v)
            if vol_u + vol_v <= cap:
                small, large = (ru, rv) if vol_u <= vol_v else (rv, ru)
                merged_into[small] = large
                grown[large] = vol_u + vol_v
        if merged_into:
            roots[list(merged_into)] = list(merged_into.values())
            vol[list(grown)] = list(grown.values())

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
        """First choice unless full, then second, then the lightest.

        Each edge's two candidate partitions are pure functions of the
        static cluster map, computed per block in one numpy pass. A slice
        whose first choices all fit — every partition's load plus its
        count in the slice stays within the cap — is committed whole:
        whatever the order, each edge finds its first choice below the
        cap. Other slices go through :meth:`_place_edges` one edge at a
        time.
        """
        cap = int(self.balance_cap * num_edges / num_partitions) + 1
        part_of = cluster_to_part[cluster_of]
        loads = np.zeros(num_partitions, dtype=np.int64)
        for block in blocks():
            pu = part_of[block[:, 0]]
            pv = part_of[block[:, 1]]
            u_first = degrees[block[:, 0]] <= degrees[block[:, 1]]
            out = np.where(u_first, pu, pv)
            second = np.where(u_first, pv, pu)
            for chosen, fallback in zip(_slices(out), _slices(second)):
                counts = np.bincount(chosen, minlength=num_partitions)
                if (loads + counts <= cap).all():
                    loads += counts
                else:
                    self._place_edges(chosen, fallback, loads, cap)
            yield block, out

    @staticmethod
    def _place_edges(
        chosen: np.ndarray, fallback: np.ndarray, loads: np.ndarray, cap: int
    ) -> None:
        """Place one slice edge by edge, updating ``chosen`` (which arrives
        holding the first choices) and ``loads`` in place."""
        load = loads.tolist()
        pairs = zip(chosen.tolist(), fallback.tolist())
        for i, (target, second) in enumerate(pairs):
            if load[target] >= cap:
                target = second
                if load[target] >= cap:
                    target = min(range(len(load)), key=load.__getitem__)
                chosen[i] = target
            load[target] += 1
        loads[:] = load
