"""HEP: Hybrid Edge Partitioner.

Mayer and Jacobsen, SIGMOD 2021. The graph is split by a degree threshold
``tau * mean_degree``:

* edges between two *low-degree* vertices are partitioned in memory by
  neighbourhood expansion (NE), which grows each partition around a core of
  tightly-connected vertices and achieves very low replication factors;
* edges touching a *high-degree* vertex are streamed with an HDRF-style
  scorer seeded with the in-memory result.

``tau = 100`` keeps virtually the whole graph in memory (the paper treats
it as in-memory partitioning, "HEP100"); ``tau = 10`` streams the hub
edges ("HEP10"), trading quality for memory.
"""

from __future__ import annotations

import heapq

import numpy as np

from ...graph import Graph
from ..base import EdgePartitioner
from .refine import incidence, refine_replicas
from .streaming import HdrfState

__all__ = ["HepPartitioner", "neighborhood_expansion"]


class HepPartitioner(EdgePartitioner):
    """Hybrid Edge Partitioner: in-memory core plus streamed remainder (HEP)."""
    category = "hybrid"

    def __init__(self, tau: float = 10.0, balance_cap: float = 1.1) -> None:
        super().__init__()
        if tau <= 0:
            raise ValueError("tau must be positive")
        if balance_cap < 1:
            raise ValueError("balance_cap must be at least 1")
        self.tau = tau
        self.balance_cap = balance_cap
        self.name = f"HEP{int(tau)}"

    def _assign(
        self,
        graph: Graph,
        edges: np.ndarray,
        num_partitions: int,
        seed: int,
    ) -> np.ndarray:
        degrees = graph.degrees().astype(np.int64)
        threshold = self.tau * max(degrees.mean(), 1.0)
        high_vertex = degrees > threshold
        low_edge = ~(high_vertex[edges[:, 0]] | high_vertex[edges[:, 1]])
        low_ids = np.flatnonzero(low_edge)
        high_ids = np.flatnonzero(~low_edge)

        assignment = np.full(edges.shape[0], -1, dtype=np.int32)
        cap = int(
            np.ceil(self.balance_cap * edges.shape[0] / num_partitions)
        )
        leftovers = neighborhood_expansion(
            graph.num_vertices,
            edges,
            low_ids,
            assignment,
            num_partitions,
            cap,
            degrees,
        )

        # In-memory quality pass: NE leaves fragmented replicas behind; a
        # greedy replica-reducing sweep (affordable only because this part
        # of the graph *is* in memory) recovers them.
        placed_low = low_ids[assignment[low_ids] >= 0]
        mem_cap = int(
            np.ceil(self.balance_cap * max(placed_low.size, 1) / num_partitions)
        )
        refine_replicas(
            edges, assignment, placed_low, graph.num_vertices,
            num_partitions, mem_cap, seed,
        )

        # Stream hub edges (plus any NE leftovers) through HDRF seeded with
        # the in-memory assignment, so the scorer sees existing replicas.
        stream_ids = np.concatenate([high_ids, leftovers])
        if stream_ids.size == 0:
            return assignment
        state = HdrfState(graph.num_vertices, num_partitions)
        placed = assignment >= 0
        state.seed_from(edges[placed], assignment[placed])
        order = np.random.default_rng(seed).permutation(stream_ids.shape[0])
        streamed = stream_ids[order]
        assignment[streamed] = state.place_edges(edges[streamed])
        return assignment


def neighborhood_expansion(
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
    # The expansion walks edge by edge, so its state is plain lists; edges
    # are named by their position in ``low_ids``.
    sub_edges = edges[low_ids]
    indptr, incident = incidence(sub_edges, num_vertices)
    us, vs = sub_edges[:, 0].tolist(), sub_edges[:, 1].tolist()
    owner = assignment[low_ids].tolist()
    remaining = np.diff(indptr).tolist()  # unassigned incident low edges
    # Seeds are taken lowest-degree-first: NE grows best from the fringe.
    seed_order = np.argsort(degrees, kind="stable").tolist()
    seed_ptr = 0
    n = num_vertices
    per_part_cap = max(int(low_ids.size / num_partitions), 1)
    target_cap = min(per_part_cap, cap)

    for part in range(num_partitions):
        load = 0
        # Int keys ``remaining * n + vertex``: (remaining, vertex) order.
        heap: list[int] = []
        while load < target_cap:
            # Pop the boundary vertex with fewest unassigned edges.
            vertex = -1
            while heap:
                count, candidate = divmod(heapq.heappop(heap), n)
                if remaining[candidate] == 0:
                    continue
                if count != remaining[candidate]:
                    heapq.heappush(heap, remaining[candidate] * n + candidate)
                    continue
                vertex = candidate
                break
            if vertex < 0:
                while (
                    seed_ptr < len(seed_order)
                    and remaining[seed_order[seed_ptr]] == 0
                ):
                    seed_ptr += 1
                if seed_ptr >= len(seed_order):
                    break  # no unassigned low edges left anywhere
                vertex = seed_order[seed_ptr]
            # Claim every unassigned low edge of `vertex` for `part`.
            for i in incident[indptr[vertex] : indptr[vertex + 1]]:
                if owner[i] >= 0:
                    continue
                owner[i] = part
                load += 1
                u, v = us[i], vs[i]
                other = v if u == vertex else u
                remaining[u] -= 1
                remaining[v] -= 1
                if remaining[other] > 0:
                    heapq.heappush(heap, remaining[other] * n + other)
            remaining[vertex] = 0
    assignment[low_ids] = owner
    return low_ids[assignment[low_ids] < 0]
