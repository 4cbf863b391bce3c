"""Process-wide partition cache.

Partitioning is by far the most expensive step of every experiment and is
fully deterministic given (algorithm, graph, k, seed), so results are
cached per process. The wall-clock partitioning time of the *first* run is
kept alongside the assignment — it feeds the amortization analysis.

The cache is an LRU of a fixed :data:`~repro.graph.datasets.CACHE_CAPACITY`
entries: long sweeps (many graphs x partitioners x k x seeds, and
especially long-running fault sweeps) would otherwise grow the process's
memory without limit. Validation raises real exceptions rather
than ``assert`` — ``python -O`` strips asserts, which would silently turn
a wrong-family cache hit into corrupt downstream results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple, Union

from ..distdgl.trace import clear_traces
from ..graph import Graph
from ..graph.datasets import CACHE_CAPACITY
from ..obs import api as obs
from ..partitioning import (
    EdgePartition,
    VertexPartition,
    make_edge_partitioner,
    make_vertex_partitioner,
)

__all__ = [
    "cached_edge_partition",
    "cached_vertex_partition",
    "clear_cache",
    "cache_size",
    "CacheEntryError",
]

_CacheKey = Tuple[str, str, str, int, int]
_Entry = Tuple[Union[EdgePartition, VertexPartition], float]

#: Entries, most-recently-used last. Bounded by ``CACHE_CAPACITY``.
_CACHE: "OrderedDict[_CacheKey, _Entry]" = OrderedDict()


class CacheEntryError(RuntimeError):
    """A cache entry is inconsistent with what the caller asked for.

    This is a real exception (not ``assert``) on purpose: it must keep
    firing under ``python -O``, where a silent wrong-family hit would
    corrupt every result derived from it.
    """


def cache_size() -> int:
    """Number of partitions currently cached."""
    return len(_CACHE)


def _key(
    family: str, name: str, graph: Graph, k: int, seed: int
) -> _CacheKey:
    # Key on the graph's content fingerprint, not id(graph): ids are
    # recycled after garbage collection, which could silently serve a
    # partition of a *different* graph to a later experiment.
    return (family, name.lower(), graph.fingerprint(), k, seed)


def _insert(key: _CacheKey, entry: _Entry) -> None:
    _CACHE[key] = entry
    _CACHE.move_to_end(key)
    while len(_CACHE) > CACHE_CAPACITY:
        _CACHE.popitem(last=False)


def _lookup(key: _CacheKey) -> Union[_Entry, None]:
    entry = _CACHE.get(key)
    if entry is not None:
        _CACHE.move_to_end(key)
        obs.count("partition_cache.hits")
    else:
        obs.count("partition_cache.misses")
    return entry


#: Per family: the partitioner factory and the partition type a cache
#: entry must hold.
_FAMILIES = {
    "edge": (make_edge_partitioner, EdgePartition),
    "vertex": (make_vertex_partitioner, VertexPartition),
}


def _cached_partition(
    family: str, graph: Graph, name: str, num_partitions: int, seed: int
) -> _Entry:
    make_partitioner, partition_type = _FAMILIES[family]
    key = _key(family, name, graph, num_partitions, seed)
    entry = _lookup(key)
    if entry is None:
        partitioner = make_partitioner(name)
        partition = partitioner.partition(graph, num_partitions, seed=seed)
        seconds = partitioner.last_partitioning_seconds
        if seconds is None:
            raise CacheEntryError(
                f"partitioner {name!r} did not record a partitioning time"
            )
        entry = (partition, seconds)
        _insert(key, entry)
    if not isinstance(entry[0], partition_type):
        raise CacheEntryError(
            f"cache entry for {key!r} holds a "
            f"{type(entry[0]).__name__}, expected "
            f"{partition_type.__name__}"
        )
    return entry


def cached_edge_partition(
    graph: Graph, name: str, num_partitions: int, seed: int = 0
) -> Tuple[EdgePartition, float]:
    """Partition (or fetch) and return ``(partition, seconds)``."""
    return _cached_partition("edge", graph, name, num_partitions, seed)


def cached_vertex_partition(
    graph: Graph, name: str, num_partitions: int, seed: int = 0
) -> Tuple[VertexPartition, float]:
    """Partition (or fetch) and return ``(partition, seconds)``."""
    return _cached_partition("vertex", graph, name, num_partitions, seed)


def clear_cache() -> None:
    """Drop every cached partition and every sampling trace recorded on
    one (frees memory between sweeps)."""
    _CACHE.clear()
    clear_traces()
