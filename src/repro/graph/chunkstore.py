"""On-disk spool of fixed-size edge chunks.

The chunk store is the substrate of the out-of-core partitioning
pipeline (generate -> chunk -> partition -> shuffle, modeled on DGL's
chunked-graph dispatch): an edge stream is written as a directory of
``chunk-00000.npy`` files — each a ``(chunk_size, 2)`` int64 block,
the last one possibly shorter — plus a ``manifest.json`` carrying the
stream's dimensions and a content fingerprint. Readers stream the
chunks back one at a time, so neither side ever materialises the full
``(m, 2)`` edge array; peak memory is bounded by ``chunk_size``, not
by the number of edges.

The fingerprint hashes the concatenated raw bytes of the stream in
write order, so it is invariant to how the stream was split into
``append`` calls *and* to the chunk size — two spools of the same
edge sequence always agree, which makes it usable as a content cache
key across chunkings.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "DEFAULT_STORE_CHUNK",
    "ChunkManifest",
    "EdgeChunkWriter",
    "EdgeChunkReader",
    "spool_edges",
    "spool_graph",
]

#: Default edges per on-disk chunk (4 MiB of int64 pairs).
DEFAULT_STORE_CHUNK = 1 << 18

_MANIFEST = "manifest.json"
_CHUNK_FMT = "chunk-{:05d}.npy"


@dataclass
class ChunkManifest:
    """The metadata record stored next to a spool's chunks."""

    num_vertices: int
    num_edges: int
    chunk_size: int
    num_chunks: int
    directed: bool
    fingerprint: str
    dtype: str = "int64"
    version: int = 1

    def save(self, directory: str) -> None:
        """Write the manifest JSON into ``directory`` (atomic replace)."""
        path = os.path.join(directory, _MANIFEST)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, directory: str) -> "ChunkManifest":
        """Read the manifest JSON from ``directory``."""
        path = os.path.join(directory, _MANIFEST)
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        return cls(**doc)


class EdgeChunkWriter:
    """Append-only writer of an edge stream into fixed-size npy chunks.

    Parameters
    ----------
    directory:
        Target directory; created if missing. Must not already hold a
        spool (a fresh writer refuses to overwrite an existing
        manifest).
    chunk_size:
        Edges per chunk file; the last chunk may be shorter.
    num_vertices:
        Declared vertex-id space. When omitted it is inferred as
        ``max endpoint + 1`` over the stream.
    directed:
        Whether the stream's rows are directed arcs (recorded in the
        manifest; the store itself is agnostic).

    Use as a context manager or call :meth:`close` to flush the tail
    chunk and write the manifest.
    """

    def __init__(
        self,
        directory: str,
        chunk_size: int = DEFAULT_STORE_CHUNK,
        num_vertices: Optional[int] = None,
        directed: bool = False,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        os.makedirs(directory, exist_ok=True)
        if os.path.exists(os.path.join(directory, _MANIFEST)):
            raise FileExistsError(
                f"{directory} already holds a chunk store"
            )
        self.directory = directory
        self.chunk_size = int(chunk_size)
        self._declared_vertices = num_vertices
        self._directed = bool(directed)
        self._buffer = np.empty((chunk_size, 2), dtype=np.int64)
        self._filled = 0
        self._num_chunks = 0
        self._num_edges = 0
        self._max_vertex = -1
        self._digest = hashlib.sha1()
        self._closed = False

    # ------------------------------------------------------------------
    def append(self, edges: np.ndarray) -> None:
        """Append an ``(b, 2)`` block of edges to the stream."""
        if self._closed:
            raise RuntimeError("writer is closed")
        edges = np.ascontiguousarray(edges, dtype=np.int64)
        if edges.size == 0:
            return
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if edges.min() < 0:
            raise ValueError("vertex ids must be non-negative")
        self._max_vertex = max(self._max_vertex, int(edges.max()))
        self._num_edges += edges.shape[0]
        offset = 0
        while offset < edges.shape[0]:
            take = min(
                self.chunk_size - self._filled, edges.shape[0] - offset
            )
            self._buffer[self._filled : self._filled + take] = edges[
                offset : offset + take
            ]
            self._filled += take
            offset += take
            if self._filled == self.chunk_size:
                self._flush_chunk()

    def _flush_chunk(self) -> None:
        if self._filled == 0:
            return
        chunk = self._buffer[: self._filled]
        # Hash the raw stream bytes: chunk boundaries do not matter,
        # only the edge sequence, so fingerprints are chunking-invariant.
        self._digest.update(chunk.tobytes())
        path = os.path.join(
            self.directory, _CHUNK_FMT.format(self._num_chunks)
        )
        np.save(path, chunk)
        self._num_chunks += 1
        self._filled = 0

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Edges appended so far (flushed or buffered)."""
        return self._num_edges

    def close(self) -> ChunkManifest:
        """Flush the tail chunk, write the manifest, return it."""
        if self._closed:
            return self._manifest
        self._flush_chunk()
        num_vertices = self._declared_vertices
        if num_vertices is None:
            num_vertices = self._max_vertex + 1 if self._max_vertex >= 0 else 1
        elif self._max_vertex >= num_vertices:
            raise ValueError(
                f"edge endpoint {self._max_vertex} out of range for "
                f"declared num_vertices={num_vertices}"
            )
        self._manifest = ChunkManifest(
            num_vertices=int(num_vertices),
            num_edges=self._num_edges,
            chunk_size=self.chunk_size,
            num_chunks=self._num_chunks,
            directed=self._directed,
            fingerprint=self._digest.hexdigest(),
        )
        self._manifest.save(self.directory)
        self._buffer = np.empty((0, 2), dtype=np.int64)  # release
        self._closed = True
        return self._manifest

    def __enter__(self) -> "EdgeChunkWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class EdgeChunkReader:
    """Streaming reader over a spooled edge-chunk directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.manifest = ChunkManifest.load(directory)

    # Mirrors the metadata the partitioners need from a Graph.
    @property
    def num_vertices(self) -> int:
        """Declared vertex-id space of the stream."""
        return self.manifest.num_vertices

    @property
    def num_edges(self) -> int:
        """Total edges across all chunks."""
        return self.manifest.num_edges

    @property
    def directed(self) -> bool:
        """Whether the stream's rows are directed arcs."""
        return self.manifest.directed

    @property
    def fingerprint(self) -> str:
        """Chunking-invariant content hash of the edge sequence."""
        return self.manifest.fingerprint

    def _chunk_path(self, index: int) -> str:
        return os.path.join(self.directory, _CHUNK_FMT.format(index))

    def iter_chunks(self) -> Iterator[np.ndarray]:
        """Yield each chunk as a fresh ``(b, 2)`` int64 array, in order."""
        for index in range(self.manifest.num_chunks):
            yield np.load(self._chunk_path(index))

    def read_all(self) -> np.ndarray:
        """Concatenate every chunk (small stores / tests only)."""
        chunks = list(self.iter_chunks())
        if not chunks:
            return np.zeros((0, 2), dtype=np.int64)
        return np.concatenate(chunks, axis=0)

    def verify(self) -> bool:
        """Re-hash the stream and compare against the manifest."""
        digest = hashlib.sha1()
        for chunk in self.iter_chunks():
            digest.update(np.ascontiguousarray(chunk).tobytes())
        return digest.hexdigest() == self.manifest.fingerprint

    def __len__(self) -> int:
        return self.manifest.num_chunks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EdgeChunkReader({self.directory!r}, "
            f"|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"chunks={self.manifest.num_chunks})"
        )


def spool_edges(
    blocks: Iterable[np.ndarray],
    directory: str,
    chunk_size: int = DEFAULT_STORE_CHUNK,
    num_vertices: Optional[int] = None,
    directed: bool = False,
) -> EdgeChunkReader:
    """Spool an iterable of edge blocks into ``directory`` and open it."""
    with EdgeChunkWriter(
        directory,
        chunk_size=chunk_size,
        num_vertices=num_vertices,
        directed=directed,
    ) as writer:
        for block in blocks:
            writer.append(block)
    return EdgeChunkReader(directory)


def spool_graph(
    graph,
    directory: str,
    chunk_size: int = DEFAULT_STORE_CHUNK,
    undirected_view: bool = True,
) -> EdgeChunkReader:
    """Spool an in-memory :class:`~repro.graph.csr.Graph` into a store.

    With ``undirected_view`` (the default) the spooled stream is
    ``graph.undirected_edges()`` — the exact stream the in-memory edge
    partitioners consume — so out-of-core runs over the store are
    comparable (bit-identical, for the streaming algorithms) to
    ``partition(graph, ...)``. Otherwise the stored arc rows
    (``graph.edges``) are spooled as-is.
    """
    edges = graph.undirected_edges() if undirected_view else graph.edges
    directed = False if undirected_view else graph.directed
    with EdgeChunkWriter(
        directory,
        chunk_size=chunk_size,
        num_vertices=graph.num_vertices,
        directed=directed,
    ) as writer:
        for start in range(0, edges.shape[0], chunk_size):
            writer.append(edges[start : start + chunk_size])
    return EdgeChunkReader(directory)
