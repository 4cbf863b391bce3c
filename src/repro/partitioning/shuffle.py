"""Out-of-core shuffle: write per-partition edge buckets back to disk.

DistDGL's pipeline follows partitioning with a *data shuffle*: every
edge is physically moved to the partition that owns it, so each worker
can later load nothing but its own bucket. :func:`shuffle_stream` is
that step for the chunk-store pipeline — it drives a streaming
partitioner over an on-disk spool and appends each block's edges to
``k`` per-partition chunk stores, without ever materialising the full
edge list *or* the full assignment. Peak memory is bounded by one
store chunk plus one span plus ``k`` partially-filled bucket buffers.

Within a bucket, edges keep their stream order (the split per block is
a stable sort by partition id), so the shuffle output is deterministic
given the store and the partitioner configuration. Spans (HDRF yields
ramp spans of <= 1 024 edges) are buffered up to a store chunk's worth
of rows before the split; a bucket's bytes depend only on the sequence
of rows appended to it, which that does not change.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..graph.chunkstore import EdgeChunkReader, EdgeChunkWriter
from .ordering import stable_order

__all__ = ["ShuffleResult", "shuffle_stream"]

_BUCKET_FMT = "part-{:03d}"


@dataclass
class ShuffleResult:
    """Outcome of an out-of-core shuffle pass.

    ``directory`` holds one chunk store per partition
    (``part-000`` ... ``part-<k-1>``); ``edge_counts[p]`` is the number
    of edges bucket ``p`` received.
    """

    directory: str
    num_partitions: int
    edge_counts: np.ndarray
    partitioner_name: str

    def bucket_path(self, partition: int) -> str:
        """Directory of partition ``partition``'s bucket store."""
        if not 0 <= partition < self.num_partitions:
            raise IndexError("partition out of range")
        return os.path.join(
            self.directory, _BUCKET_FMT.format(partition)
        )

    def bucket(self, partition: int) -> EdgeChunkReader:
        """Open partition ``partition``'s bucket store."""
        return EdgeChunkReader(self.bucket_path(partition))


def _coalesce(blocks: Iterator[tuple], rows: int) -> Iterator[tuple]:
    """Join consecutive ``(edges, assignment)`` pairs into >= ``rows`` rows.

    The buffer never holds more than ``rows`` rows plus one incoming
    pair; the last pair yielded holds whatever is left.
    """
    pending: list = []
    held = 0
    for pair in blocks:
        pending.append(pair)
        held += pair[1].shape[0]
        if held >= rows:
            yield _joined(pending)
            pending, held = [], 0
    if pending:
        yield _joined(pending)


def _joined(pairs: list) -> tuple:
    return tuple(p[0] if len(p) == 1 else np.concatenate(p) for p in zip(*pairs))


def shuffle_stream(
    reader: EdgeChunkReader,
    partitioner,
    num_partitions: int,
    out_directory: str,
    seed: int = 0,
    bucket_chunk_size: Optional[int] = None,
) -> ShuffleResult:
    """Partition a spooled edge stream and bucket its edges by owner.

    ``partitioner`` is any :class:`~repro.partitioning.base.EdgePartitioner`
    with ``supports_stream = True``; its
    :meth:`~repro.partitioning.base.EdgePartitioner.stream_assignments`
    generator is consumed a store chunk's worth of rows at a time, each
    such block split (stable, so stream order survives within a bucket)
    and appended to the matching per-partition store under
    ``out_directory``. Bucket stores inherit the source's chunk size
    unless ``bucket_chunk_size`` overrides it.

    A partitioner that cannot stream raises before any bucket directory
    exists. Bucket manifests are written only once the whole stream has
    been bucketed. A shuffle that raises part-way leaves chunk files but no
    ``manifest.json``, so its buckets cannot be opened as if they were
    whole, and a rerun into the same directory overwrites them.
    """
    blocks = partitioner.stream_assignments(reader, num_partitions, seed=seed)
    if bucket_chunk_size is None:
        bucket_chunk_size = reader.manifest.chunk_size
    os.makedirs(out_directory, exist_ok=True)
    writers = [
        EdgeChunkWriter(
            os.path.join(out_directory, _BUCKET_FMT.format(p)),
            chunk_size=bucket_chunk_size,
            num_vertices=reader.num_vertices,
            directed=reader.directed,
        )
        for p in range(num_partitions)
    ]
    counts = np.zeros(num_partitions, dtype=np.int64)
    for edges, assignment in _coalesce(blocks, reader.manifest.chunk_size):
        order = stable_order(assignment, num_partitions)
        bucketed = edges[order]
        block_counts = np.bincount(assignment, minlength=num_partitions)
        bounds = np.concatenate([[0], np.cumsum(block_counts)])
        for p in np.flatnonzero(block_counts):
            writers[p].append(bucketed[bounds[p] : bounds[p + 1]])
        counts += block_counts
    # Not in a ``finally``: closing is what publishes a bucket.
    for writer in writers:
        writer.close()
    return ShuffleResult(
        directory=out_directory,
        num_partitions=num_partitions,
        edge_counts=counts,
        partitioner_name=partitioner.name,
    )
