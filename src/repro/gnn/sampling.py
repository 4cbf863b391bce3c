"""Neighbourhood sampling for mini-batch GNN training.

Implements DGL-style fan-out sampling: starting from the mini-batch seeds,
each GNN layer samples up to ``fanout`` neighbours of the current frontier.
:func:`sample_layers` yields the layers as id arrays, of one mini-batch
or of many expanded together (what the DistDGL engine counts);
:func:`sample_blocks` turns one mini-batch's into one
:class:`~repro.gnn.blocks.Block` per layer. The paper's
fan-out configuration (Section 5.1) is exposed via
:func:`default_fanouts`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

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


def sample_layers(
    graph: Graph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    rng: np.random.Generator,
    batch: Optional[np.ndarray] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Sample the computation graphs of one or more mini-batches, layer
    by layer, in one frontier expansion.

    ``batch[i]`` (default: all 0) is the mini-batch of ``seeds[i]``;
    mini-batch ``b``'s vertex ``v`` is addressed by its *key*
    ``b * |V| + v``, so with one mini-batch keys are vertex ids.
    ``fanouts[i]`` is the fan-out of GNN layer ``i``; sampling proceeds
    from the seeds inward (last layer first), as in DGL, and yields
    ``(frontier, src, dst, extra)`` per layer: the layer's destination
    keys (at first the sorted, deduplicated seed keys), each sampled
    edge's source key and frontier index, and the sorted source keys
    not in ``frontier``. The next frontier is ``frontier`` then
    ``extra``. Vertices with degree below the fan-out keep all their
    neighbours; higher-degree vertices draw ``fanout`` samples with
    replacement, deduplicated per (source, destination) pair —
    statistically close to DGL's without-replacement sampling and fully
    vectorisable.

    ``rng`` is consumed by one ``integers`` call per layer that has a
    frontier vertex of degree above the fan-out, and by nothing else:
    those vertices draw mini-batch by mini-batch, each mini-batch's in
    frontier order. The layers are a function of ``(graph, seeds,
    batch, fanouts, generator state)`` alone. The DistDGL engine relies
    on that: it samples a step's mini-batches in one call, records their
    counts once and replays them for every model configuration
    (:mod:`repro.distdgl.trace`). Membership in the frontier is looked
    up in its sorted keys, so memory stays O(frontier), not
    O(mini-batches x |V|).
    """
    indptr, indices = graph.symmetric_csr()
    num_vertices = indptr.shape[0] - 1
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise ValueError("cannot sample an empty mini-batch")
    if seeds.min() < 0 or seeds.max() >= num_vertices:
        raise ValueError(f"seeds must lie in [0, {num_vertices})")
    if len(fanouts) == 0 or min(fanouts) <= 0:
        raise ValueError("fanouts must be one or more positive ints")
    if batch is not None:
        seeds = np.asarray(batch, dtype=np.int64) * num_vertices + seeds
    frontier = sorted_unique(seeds)
    seen = frontier  # the frontier's keys, sorted
    for fanout in reversed(fanouts):
        src, dst = _sample_layer(frontier, indptr, indices, fanout, rng)
        sources = sorted_unique(src)
        at = np.minimum(np.searchsorted(seen, sources), seen.size - 1)
        extra = sources[seen[at] != sources]
        # Two sorted runs: a stable sort merges them in linear time.
        seen = np.concatenate([seen, extra])
        seen.sort(kind="stable")
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
    """Sample up to ``fanout`` neighbours per frontier key.

    Returns source keys and local (frontier-index) destinations: the
    low-degree vertices' edges in frontier order, then the high-degree
    vertices' in draw order (frontier order for one mini-batch), each
    vertex's sources ascending.
    """
    num_vertices = indptr.shape[0] - 1
    group, vertex = np.divmod(frontier, num_vertices)
    starts = indptr[vertex]
    degrees = indptr[vertex + 1] - starts
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
    # per (dst, src) pair - vectorised across the whole frontier. The
    # frontier lists its mini-batches' keys layer by layer; a stable sort
    # by mini-batch draws them mini-batch by mini-batch instead, each
    # mini-batch's in frontier order.
    big_idx = (~small).nonzero()[0]
    if big_idx.size:
        big_idx = big_idx[np.argsort(group[big_idx], kind="stable")]
        draws = rng.integers(
            0, degrees[big_idx][:, None], size=(big_idx.size, fanout)
        )
        # One row per vertex: its sorted samples, repeats dropped, are
        # its distinct (dst, src) pairs in source order.
        sampled = indices[starts[big_idx][:, None] + draws]
        sampled.sort(axis=1)
        kept = np.ones(sampled.shape, dtype=bool)
        np.not_equal(sampled[:, 1:], sampled[:, :-1], out=kept[:, 1:])
        src = np.concatenate([src, sampled[kept]])
        dst = np.concatenate([dst, big_idx.repeat(kept.sum(axis=1))])
    # A key minus its vertex is its mini-batch's offset.
    return (frontier - vertex)[dst] + src, dst
