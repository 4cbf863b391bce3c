"""Chunk schedule shared by the streaming kernels.

Streaming partitioners (HDRF, LDG, Fennel, reLDG, HEP's tail phase)
process their stream in chunks: per-stream-element state (partition
loads / the balance or penalty term) is frozen at the start of each
chunk so the chunk body can be scored with numpy batch operations. The
schedule ramps up geometrically from :data:`MIN_CHUNK` so the early
stream — where balance is the only signal — still reacts quickly, and
the transient staleness introduced later is bounded by the final chunk
size. :func:`iter_ramp_blocks` is the one implementation of the ramp:
in-memory runs pass the whole stream as a single block, out-of-core
runs pass the store's chunks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["DEFAULT_CHUNK", "MIN_CHUNK", "iter_ramp_blocks"]

#: Default ceiling of the chunk-size ramp.
DEFAULT_CHUNK = 1024
#: First chunk of the ramp (kept small so early balance stays tight).
MIN_CHUNK = 32


def iter_ramp_blocks(
    blocks: Iterable[np.ndarray], chunk_size: int = DEFAULT_CHUNK
) -> Iterator[np.ndarray]:
    """Re-chunk an iterable of arbitrary-size blocks into the ramp spans.

    Spans start at ``min(MIN_CHUNK, chunk_size)`` rows and double up to
    ``chunk_size``; the last one holds whatever is left. The spans depend
    only on the concatenated stream, never on where the incoming blocks
    end — partial spans are carried across block boundaries — so a
    kernel driven through it is bit-identical whether it gets the whole
    array or an on-disk store's chunks. Only spans that straddle a block
    boundary are copied (concatenated); interior spans are views into
    the incoming block.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    size = min(MIN_CHUNK, chunk_size)
    pending: list = []
    pending_rows = 0
    for block in blocks:
        offset = 0
        length = block.shape[0]
        while offset < length:
            take = min(size - pending_rows, length - offset)
            pending.append(block[offset : offset + take])
            pending_rows += take
            offset += take
            if pending_rows == size:
                yield (
                    pending[0]
                    if len(pending) == 1
                    else np.concatenate(pending)
                )
                pending = []
                pending_rows = 0
                size = min(size * 2, chunk_size)
    if pending_rows:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)
