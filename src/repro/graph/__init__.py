"""Graph substrate: storage, generation, datasets, splits, edge-list
reading and stats."""

from .chunkstore import (
    ChunkManifest,
    EdgeChunkReader,
    EdgeChunkWriter,
    spool_edges,
    spool_graph,
)
from .csr import Graph, build_csr, sorted_unique
from .datasets import DATASET_KEYS, DatasetSpec, dataset_specs, load_dataset
from .generators import (
    affiliation_graph,
    powerlaw_cluster_graph,
    preferential_attachment_graph,
    rmat_edge_chunks,
    road_network_graph,
    web_host_graph,
)
from .io import read_edge_list
from .features import ClassificationTask, planted_community_task
from .splits import VertexSplit, random_split
from .stats import GraphStats, graph_stats

__all__ = [
    "Graph",
    "build_csr",
    "sorted_unique",
    "ChunkManifest",
    "EdgeChunkReader",
    "EdgeChunkWriter",
    "spool_edges",
    "spool_graph",
    "rmat_edge_chunks",
    "DATASET_KEYS",
    "DatasetSpec",
    "dataset_specs",
    "load_dataset",
    "affiliation_graph",
    "powerlaw_cluster_graph",
    "preferential_attachment_graph",
    "road_network_graph",
    "web_host_graph",
    "read_edge_list",
    "VertexSplit",
    "random_split",
    "GraphStats",
    "graph_stats",
    "ClassificationTask",
    "planted_community_task",
]
