"""Neighbourhood sampling for mini-batch GNN training.

Implements DGL-style fan-out sampling: starting from the mini-batch seeds,
each GNN layer samples up to ``fanout`` neighbours of the current frontier.
:func:`sample_layers` yields the layers as global-id arrays (what the
DistDGL engine counts); :func:`sample_blocks` turns them into one
:class:`~repro.gnn.blocks.Block` per layer. The paper's
fan-out configuration (Section 5.1) is exposed via
:func:`default_fanouts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ..graph import Graph, sorted_unique
from .blocks import Block

__all__ = ["MiniBatch", "sample_blocks", "sample_layers", "default_fanouts"]

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


def sample_layers(
    graph: Graph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Sample a multi-layer computation graph from ``seeds``, layer by layer.

    ``fanouts[i]`` is the fan-out of GNN layer ``i``; sampling proceeds
    from the seeds inward (last layer first), as in DGL, and yields
    ``(frontier, src, dst, extra)`` per layer: the layer's destination
    vertices (at first the sorted, deduplicated seeds), each sampled
    edge's global source and frontier index, and the sorted sources not
    in ``frontier``. The next frontier is ``frontier`` then ``extra``.
    Vertices with degree below the fan-out keep all their neighbours;
    higher-degree vertices draw ``fanout`` samples with replacement,
    deduplicated per (source, destination) pair — statistically close
    to DGL's without-replacement sampling and fully vectorisable.

    ``rng`` is consumed by one ``integers`` call per layer that has a
    frontier vertex of degree above the fan-out, and by nothing else;
    the layers are a function of ``(graph, seeds, fanouts, generator
    state)`` alone. The DistDGL engine relies on that: it records the
    counts of a sampled step once and replays them for every model
    configuration (:mod:`repro.distdgl.trace`).
    """
    indptr, indices = graph.symmetric_csr()
    num_vertices = indptr.shape[0] - 1
    frontier = sorted_unique(np.asarray(seeds, dtype=np.int64))
    if frontier.size == 0:
        raise ValueError("cannot sample an empty mini-batch")
    if frontier[0] < 0 or frontier[-1] >= num_vertices:
        raise ValueError(f"seeds must lie in [0, {num_vertices})")
    if len(fanouts) == 0 or min(fanouts) <= 0:
        raise ValueError("fanouts must be one or more positive ints")
    outside = np.ones(num_vertices, dtype=bool)
    outside[frontier] = False
    for fanout in reversed(fanouts):
        src, dst = _sample_layer(frontier, indptr, indices, fanout, rng)
        extra = sorted_unique(src[outside[src]])
        outside[extra] = False
        yield frontier, src, dst, extra
        frontier = np.concatenate([frontier, extra])


def sample_blocks(
    graph: Graph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
) -> MiniBatch:
    """:func:`sample_layers` as one :class:`Block` per layer, outermost
    first, with sources relabelled to block-local ids (frontier first,
    then the new vertices: DGL's prefix convention)."""
    local_of = np.full(graph.num_vertices, -1, dtype=np.int64)
    blocks: List[Block] = []
    for frontier, src, dst, extra in sample_layers(graph, seeds, fanouts, rng):
        src_ids = np.concatenate([frontier, extra])
        local_of[src_ids] = np.arange(src_ids.size)
        blocks.insert(0, Block(
            src_ids=src_ids, num_dst=frontier.size, edge_src=local_of[src],
            edge_dst=dst,
        ))
    last = blocks[-1]
    return MiniBatch(seeds=last.src_ids[: last.num_dst], blocks=blocks)


def _sample_layer(
    frontier: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` neighbours per frontier vertex.

    Returns global source ids and local (frontier-index) destinations:
    the low-degree vertices' edges in frontier order, then the
    high-degree vertices' in (destination, source) order.
    """
    starts = indptr[frontier]
    degrees = indptr[frontier + 1] - starts
    small = degrees <= fanout
    # Low-degree vertices keep everything. Expand their CSR ranges in one
    # batch: a global arange plus, repeated over each range, its start
    # minus its offset in the output.
    small_idx = small.nonzero()[0]
    take = degrees[small_idx]
    base = (starts[small_idx] + take - take.cumsum()).repeat(take)
    src = indices[base + np.arange(base.size)]
    dst = small_idx.repeat(take)
    # High-degree vertices: `fanout` draws with replacement, deduplicated
    # per (dst, src) pair - vectorised across the whole frontier.
    big_idx = (~small).nonzero()[0]
    if big_idx.size:
        draws = rng.integers(
            0, degrees[big_idx][:, None], size=(big_idx.size, fanout)
        )
        sampled = indices[starts[big_idx][:, None] + draws]
        # Injective (dst, src) key: src < |V|, so |V| as multiplier
        # suffices. Its distinct values, sorted, are the kept pairs.
        num_vertices = indptr.shape[0] - 1
        big_dst, big_src = np.divmod(
            sorted_unique(big_idx[:, None] * num_vertices + sampled),
            num_vertices,
        )
        src = np.concatenate([src, big_src])
        dst = np.concatenate([dst, big_dst])
    return src, dst
