"""Distributed layer-wise full-graph inference (DistDGL-style).

After mini-batch training, DistDGL evaluates the model over the whole
graph *layer by layer*: every machine computes layer ``l`` outputs for
the vertices it owns, fetching the previous layer's representations of
its halo (remote neighbour) vertices. This module executes that exact
scheme with the numpy models and accounts its cost — and the test suite
asserts the distributed result equals centralized inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..gnn import GnnModel
from ..gnn.activations import relu
from ..gnn.blocks import Block
from ..graph import sorted_unique
from ..partitioning import VertexPartition

__all__ = ["DistributedInference", "InferenceReport"]


@dataclass
class InferenceReport:
    """Cost accounting of one distributed inference pass."""

    layer_fetch_bytes: List[float] = field(default_factory=list)
    layer_compute_seconds: List[np.ndarray] = field(default_factory=list)
    layer_fetch_seconds: List[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """End-to-end inference time: straggler compute plus fetch per layer."""
        compute = sum(
            float(per_machine.max())
            for per_machine in self.layer_compute_seconds
        )
        return compute + sum(self.layer_fetch_seconds)

    @property
    def total_fetch_bytes(self) -> float:
        """Total feature bytes fetched across layers."""
        return sum(self.layer_fetch_bytes)


class DistributedInference:
    """Layer-wise inference over a vertex partition."""

    def __init__(
        self,
        partition: VertexPartition,
        model: GnnModel,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        self.partition = partition
        self.model = model
        self.cost_model = cost_model
        self.graph = partition.graph
        self.num_machines = partition.num_partitions
        self._blocks = [
            self._machine_block(machine)
            for machine in range(self.num_machines)
        ]

    def _machine_block(self, machine: int) -> Tuple[Block, np.ndarray]:
        """Block computing this machine's owned vertices from their full
        neighbourhood (owned + halo sources). Returns (block, halo_ids).
        """
        indptr, indices = self.graph.symmetric_csr()
        owned = np.flatnonzero(self.partition.assignment == machine)
        counts = indptr[owned + 1] - indptr[owned]
        edge_dst = np.repeat(
            np.arange(owned.shape[0], dtype=np.int64), counts
        )
        gather = (
            np.concatenate(
                [np.arange(indptr[v], indptr[v + 1]) for v in owned]
            )
            if owned.size
            else np.zeros(0, dtype=np.int64)
        )
        neighbors = indices[gather]
        # Sources: owned first (prefix), then the distinct halo vertices.
        local_of = np.full(self.graph.num_vertices, -1, dtype=np.int64)
        local_of[owned] = np.arange(owned.shape[0])
        halo = sorted_unique(neighbors[local_of[neighbors] < 0])
        local_of[halo] = owned.shape[0] + np.arange(halo.shape[0])
        block = Block(
            src_ids=np.concatenate([owned, halo]),
            num_dst=owned.shape[0],
            edge_src=local_of[neighbors],
            edge_dst=edge_dst,
        )
        local_of[block.src_ids] = -1
        return block, halo

    def run(self, features: np.ndarray) -> Tuple[np.ndarray, InferenceReport]:
        """Run inference over all layers; returns (logits, report)."""
        if features.shape[0] != self.graph.num_vertices:
            raise ValueError("features must cover every vertex")
        cm = self.cost_model
        report = InferenceReport()
        h = features.astype(np.float64)
        for layer_index, layer in enumerate(self.model.layers):
            outputs = np.zeros((self.graph.num_vertices, layer.dim_out))
            fetch_bytes = 0.0
            compute = np.zeros(self.num_machines)
            for machine, (block, halo) in enumerate(self._blocks):
                # Fetch the halo's previous-layer state, then compute.
                fetch_bytes += cm.feature_bytes(halo.shape[0], layer.dim_in)
                out = layer.forward(block, h[block.src_ids])
                layer._cache = {}  # inference: free backward state
                outputs[block.src_ids[: block.num_dst]] = out
                flops = (
                    2.0 * block.num_edges * layer.dim_in
                    + 2.0 * block.num_dst * layer.dim_in * layer.dim_out
                )
                compute[machine] = cm.compute_seconds(flops)
            report.layer_fetch_bytes.append(fetch_bytes)
            report.layer_compute_seconds.append(compute)
            report.layer_fetch_seconds.append(
                cm.transfer_seconds(
                    fetch_bytes / max(self.num_machines, 1),
                    num_messages=max(self.num_machines - 1, 1),
                )
            )
            h = outputs
            if layer_index < self.model.num_layers - 1:
                h = relu(h)
        return h, report
