"""Pre-PR-23 bodies of 2PS-L's clustering and placement passes, verbatim.

:class:`OracleTwoPsLPartitioner` carries ``_cluster_blocks`` and
``_place_blocks`` of ``repro.partitioning.vertexcut.twops`` exactly as
they stood before the snapshot pre-filters — one Python visit per edge,
union-find and loads on plain lists — and the two scalar numpy loops
(``_cluster_reference`` / ``_place_reference``) that used to ship behind
``TwoPsLPartitioner(vectorised=False)``. Everything else (stream
shuffling, cluster packing, the out-of-core drive path) is inherited, so
an oracle partitioner and a production one driven the same way must
agree byte for byte. Do not tidy the bodies — they are the reference the
rewrite is pinned against (see ``tests/oracles/test_twops_identity.py``).
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph import Graph
from repro.partitioning import TwoPsLPartitioner
from repro.partitioning.vertexcut.twops import BlockFactory

__all__ = ["OracleTwoPsLPartitioner"]


class OracleTwoPsLPartitioner(TwoPsLPartitioner):
    """``TwoPsLPartitioner`` with the pre-PR per-edge passes."""

    def reference_assignment(
        self, graph: Graph, num_partitions: int, seed: int = 0
    ) -> np.ndarray:
        """The pre-PR ``vectorised=False`` branch of ``_assign``."""
        edges = graph.undirected_edges()
        if self.shuffle_stream:
            rng = np.random.default_rng(seed)
            order = rng.permutation(edges.shape[0])
            streamed = edges[order]
        else:
            order = None
            streamed = edges
        degrees = graph.degrees()
        num_edges = edges.shape[0]
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
