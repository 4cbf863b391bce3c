"""Neighbourhood sampling for mini-batch GNN training.

Implements DGL-style fan-out sampling: starting from the mini-batch seeds,
each GNN layer samples up to ``fanout`` neighbours of the current frontier,
producing one :class:`~repro.gnn.blocks.Block` per layer. The paper's
fan-out configuration (Section 5.1) is exposed via
:func:`default_fanouts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..graph import Graph
from .blocks import Block

__all__ = ["MiniBatch", "sample_blocks", "default_fanouts"]

_PAPER_FANOUTS = {
    2: (25, 20),
    3: (15, 10, 5),
    4: (10, 10, 5, 5),
}


def default_fanouts(num_layers: int) -> Tuple[int, ...]:
    """The paper's neighbourhood-sampling fan-outs per number of layers."""
    if num_layers not in _PAPER_FANOUTS:
        raise ValueError(
            f"paper defines fanouts for 2-4 layers, not {num_layers}"
        )
    return _PAPER_FANOUTS[num_layers]


@dataclass(frozen=True)
class MiniBatch:
    """A sampled computation graph for one training step of one worker."""

    seeds: np.ndarray
    blocks: List[Block]  # blocks[0] feeds GNN layer 0 (outermost)

    @property
    def input_ids(self) -> np.ndarray:
        """Global ids whose features must be available (block 0 sources)."""
        return self.blocks[0].src_ids

    @property
    def num_input_vertices(self) -> int:
        """Input vertices required by the outermost block."""
        return int(self.blocks[0].num_src)

    def edges_per_layer(self) -> List[int]:
        """Edges per block, outermost layer first."""
        return [block.num_edges for block in self.blocks]

    @property
    def total_edges(self) -> int:
        """Total edges across all blocks of the mini-batch."""
        return sum(self.edges_per_layer())


def sample_blocks(
    graph: Graph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> MiniBatch:
    """Sample a multi-layer computation graph from ``seeds``.

    ``fanouts[i]`` is the fan-out of GNN layer ``i``; sampling proceeds
    from the seeds inward (last layer first), as in DGL. Vertices with
    degree below the fan-out keep all their neighbours; higher-degree
    vertices draw ``fanout`` samples with replacement, deduplicated per
    (source, destination) pair — statistically close to DGL's
    without-replacement sampling and fully vectorisable.

    ``rng`` is consumed by one ``integers`` call per layer that has a
    frontier vertex of degree above the fan-out, and by nothing else;
    the result is a function of ``(graph, seeds, fanouts, generator
    state)`` alone. The DistDGL engine relies on that: it records the
    counts of a sampled step once and replays them for every model
    configuration (:mod:`repro.distdgl.trace`).
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("cannot sample an empty mini-batch")
    indptr, indices = graph.symmetric_csr()
    blocks_reversed: List[Block] = []
    frontier = seeds
    num_vertices = indptr.shape[0] - 1
    local_of = np.full(num_vertices, -1, dtype=np.int64)
    for fanout in reversed(list(fanouts)):
        if fanout <= 0:
            raise ValueError("fanouts must be positive")
        edge_src_global, edge_dst_local = _sample_layer(
            frontier, indptr, indices, fanout, rng
        )
        # Sources: frontier first (prefix convention), then new vertices.
        local_of[frontier] = np.arange(frontier.shape[0])
        new_mask = local_of[edge_src_global] < 0
        extra = np.unique(edge_src_global[new_mask])
        local_of[extra] = frontier.shape[0] + np.arange(extra.shape[0])
        edge_src_local = local_of[edge_src_global]
        src_ids = np.concatenate([frontier, extra])
        local_of[src_ids] = -1  # reset for the next layer / call
        blocks_reversed.append(
            Block(
                src_ids=src_ids,
                num_dst=frontier.shape[0],
                edge_src=edge_src_local,
                edge_dst=edge_dst_local,
            )
        )
        frontier = src_ids
    return MiniBatch(seeds=seeds, blocks=list(reversed(blocks_reversed)))


def _sample_layer(
    frontier: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` neighbours per frontier vertex.

    Returns global source ids and local (frontier-index) destinations.
    """
    degrees = indptr[frontier + 1] - indptr[frontier]
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    # Low-degree vertices keep everything - fully vectorised.
    small = degrees <= fanout
    if small.any():
        small_idx = np.flatnonzero(small)
        take = degrees[small_idx]
        starts = indptr[frontier[small_idx]]
        # Expand the per-vertex CSR ranges in one batch: repeat each
        # start `take` times and add the within-range offset
        # (a global arange minus each range's cumulative start).
        total = int(take.sum())
        within = np.arange(total) - np.repeat(np.cumsum(take) - take, take)
        offsets = np.repeat(starts, take) + within
        src_parts.append(indices[offsets])
        dst_parts.append(np.repeat(small_idx, take))
    # High-degree vertices: `fanout` draws with replacement, deduplicated
    # per (dst, src) pair - vectorised across the whole frontier.
    big_idx = np.flatnonzero(~small)
    if big_idx.size:
        draws = rng.integers(
            0, degrees[big_idx][:, None], size=(big_idx.size, fanout)
        )
        sampled = indices[indptr[frontier[big_idx]][:, None] + draws]
        dst = np.repeat(big_idx, fanout)
        src = sampled.ravel()
        # Injective (dst, src) key: src < |V|, so |V| as multiplier
        # suffices — no O(E) indices.max() scan, and no overflow risk
        # from a needlessly larger base.
        num_vertices = indptr.shape[0] - 1
        pair = dst * num_vertices + src
        _, keep = np.unique(pair, return_index=True)
        src_parts.append(src[keep])
        dst_parts.append(dst[keep])
    if src_parts:
        return (
            np.concatenate(src_parts).astype(np.int64),
            np.concatenate(dst_parts).astype(np.int64),
        )
    return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
