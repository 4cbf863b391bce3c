"""Name-based construction of the study's 12 partitioners (paper Table 2).

============  ==========  ================================
name          cut type    category
============  ==========  ================================
random-ec     vertex-cut  stateless streaming
dbh           vertex-cut  stateless streaming
hdrf          vertex-cut  stateful streaming
2ps-l         vertex-cut  stateful streaming
hep10         vertex-cut  hybrid
hep100        vertex-cut  hybrid
random-vc     edge-cut    stateless streaming
ldg           edge-cut    stateful streaming
spinner       edge-cut    in-memory
metis         edge-cut    in-memory
bytegnn       edge-cut    in-memory
kahip         edge-cut    in-memory
============  ==========  ================================

(`-ec`/`-vc` suffixes disambiguate the two Random baselines; the plain
name ``random`` is accepted by the family-specific helpers.)
"""

from __future__ import annotations

from typing import Callable, Dict

from .base import EdgePartitioner, VertexPartitioner
from .edgecut import (
    ByteGnnPartitioner,
    KahipPartitioner,
    LdgPartitioner,
    MetisPartitioner,
    RandomVertexPartitioner,
    SpinnerPartitioner,
)
from .vertexcut import (
    DbhPartitioner,
    HdrfPartitioner,
    HepPartitioner,
    RandomEdgePartitioner,
    TwoPsLPartitioner,
)

__all__ = [
    "EDGE_PARTITIONER_NAMES",
    "VERTEX_PARTITIONER_NAMES",
    "make_edge_partitioner",
    "make_vertex_partitioner",
]

_EDGE_FACTORIES: Dict[str, Callable[[], EdgePartitioner]] = {
    "random": RandomEdgePartitioner,
    "dbh": DbhPartitioner,
    "hdrf": HdrfPartitioner,
    "2ps-l": TwoPsLPartitioner,
    "hep10": lambda: HepPartitioner(tau=10.0),
    "hep100": lambda: HepPartitioner(tau=100.0),
}

_VERTEX_FACTORIES: Dict[str, Callable[[], VertexPartitioner]] = {
    "random": RandomVertexPartitioner,
    "ldg": LdgPartitioner,
    "spinner": SpinnerPartitioner,
    "metis": MetisPartitioner,
    "bytegnn": ByteGnnPartitioner,
    "kahip": KahipPartitioner,
}

#: Vertex-cut (edge partitioning) names, DistGNN side of the study.
EDGE_PARTITIONER_NAMES = tuple(_EDGE_FACTORIES)
#: Edge-cut (vertex partitioning) names, DistDGL side of the study.
VERTEX_PARTITIONER_NAMES = tuple(_VERTEX_FACTORIES)


def make_edge_partitioner(name: str) -> EdgePartitioner:
    """Construct a vertex-cut partitioner by (case-insensitive) name."""
    key = name.lower().removesuffix("-ec")
    if key not in _EDGE_FACTORIES:
        raise KeyError(
            f"unknown edge partitioner {name!r}; "
            f"available: {sorted(_EDGE_FACTORIES)}"
        )
    return _EDGE_FACTORIES[key]()


def make_vertex_partitioner(name: str) -> VertexPartitioner:
    """Construct an edge-cut partitioner by (case-insensitive) name."""
    key = name.lower().removesuffix("-vc")
    if key not in _VERTEX_FACTORIES:
        raise KeyError(
            f"unknown vertex partitioner {name!r}; "
            f"available: {sorted(_VERTEX_FACTORIES)}"
        )
    return _VERTEX_FACTORIES[key]()

