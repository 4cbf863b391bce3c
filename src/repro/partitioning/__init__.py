"""Graph partitioning: the 12 algorithms of the study plus quality metrics."""

from .assignment import EdgePartition, VertexPartition
from .base import EdgePartitioner, Partitioner, VertexPartitioner
from .outofcore import (
    StoreGraphView,
    StreamEdgePartition,
    StreamVertexPartition,
    build_stream_csr,
    stream_degrees,
)
from .shuffle import ShuffleResult, shuffle_stream
from .edgecut import (
    ByteGnnPartitioner,
    KahipPartitioner,
    LdgPartitioner,
    MetisPartitioner,
    RandomVertexPartitioner,
    SpinnerPartitioner,
)
from .metrics import (
    EdgePartitionQuality,
    VertexPartitionQuality,
    edge_balance,
    edge_cut_ratio,
    edge_partition_quality,
    replication_factor,
    training_vertex_balance,
    vertex_balance,
    vertex_balance_vertex_cut,
    vertex_partition_quality,
)
from .registry import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    make_edge_partitioner,
    make_vertex_partitioner,
)
from .extensions import (
    EXTENSION_PARTITIONER_NAMES,
    FennelPartitioner,
    NePartitioner,
    RestreamingLdgPartitioner,
    make_extension_partitioner,
)
from .validate import (
    PartitionValidationError,
    validate_edge_partition,
    validate_vertex_partition,
)
from .vertexcut import (
    DbhPartitioner,
    HdrfPartitioner,
    HepPartitioner,
    RandomEdgePartitioner,
    TwoPsLPartitioner,
)

__all__ = [
    "Partitioner",
    "EdgePartitioner",
    "VertexPartitioner",
    "EdgePartition",
    "VertexPartition",
    "RandomEdgePartitioner",
    "DbhPartitioner",
    "HdrfPartitioner",
    "TwoPsLPartitioner",
    "HepPartitioner",
    "RandomVertexPartitioner",
    "LdgPartitioner",
    "SpinnerPartitioner",
    "MetisPartitioner",
    "ByteGnnPartitioner",
    "KahipPartitioner",
    "replication_factor",
    "edge_balance",
    "vertex_balance_vertex_cut",
    "edge_cut_ratio",
    "vertex_balance",
    "training_vertex_balance",
    "EdgePartitionQuality",
    "VertexPartitionQuality",
    "edge_partition_quality",
    "vertex_partition_quality",
    "EDGE_PARTITIONER_NAMES",
    "VERTEX_PARTITIONER_NAMES",
    "make_edge_partitioner",
    "make_vertex_partitioner",
    "FennelPartitioner",
    "RestreamingLdgPartitioner",
    "NePartitioner",
    "EXTENSION_PARTITIONER_NAMES",
    "make_extension_partitioner",
    "validate_edge_partition",
    "validate_vertex_partition",
    "PartitionValidationError",
    "StoreGraphView",
    "StreamEdgePartition",
    "StreamVertexPartition",
    "build_stream_csr",
    "stream_degrees",
    "ShuffleResult",
    "shuffle_stream",
]
