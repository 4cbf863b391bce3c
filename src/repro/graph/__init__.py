"""Graph substrate: storage, generation, datasets, splits, IO and stats."""

from .builder import GraphBuilder
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
    rmat_graph,
    road_network_graph,
    web_host_graph,
)
from .io import read_edge_list, write_edge_list
from .metis_io import read_metis_graph, write_metis_graph
from .features import ClassificationTask, planted_community_task
from .splits import VertexSplit, random_split
from .stats import GraphStats, graph_stats
from .transform import (
    filter_by_degree,
    largest_connected_component,
    relabel_compact,
    symmetrized,
)

__all__ = [
    "Graph",
    "GraphBuilder",
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
    "rmat_graph",
    "road_network_graph",
    "web_host_graph",
    "read_edge_list",
    "write_edge_list",
    "read_metis_graph",
    "write_metis_graph",
    "VertexSplit",
    "random_split",
    "GraphStats",
    "graph_stats",
    "ClassificationTask",
    "planted_community_task",
    "largest_connected_component",
    "filter_by_degree",
    "relabel_compact",
    "symmetrized",
]
