"""Multi-layer GNN models over message-flow blocks."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .activations import relu, relu_grad
from .blocks import Block
from .layers import (
    GatLayer,
    GcnLayer,
    GraphLayer,
    MultiHeadGatLayer,
    SageLayer,
)

__all__ = ["GnnModel", "build_model", "ARCHITECTURES"]

ARCHITECTURES = ("sage", "gcn", "gat")

_LAYER_TYPES = {"sage": SageLayer, "gcn": GcnLayer, "gat": GatLayer}


class GnnModel:
    """A stack of graph layers with ReLU between (none after the last)."""

    def __init__(self, layers: Sequence[GraphLayer]) -> None:
        if not layers:
            raise ValueError("model needs at least one layer")
        self.layers: List[GraphLayer] = list(layers)
        self._pre_activations: List[np.ndarray] = []

    @property
    def num_layers(self) -> int:
        """Number of stacked graph layers."""
        return len(self.layers)

    @property
    def num_params(self) -> int:
        """Total scalar parameters across layers."""
        return sum(layer.num_params for layer in self.layers)

    def parameters(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(param, grad)`` pairs of every layer."""
        for layer in self.layers:
            yield from layer.parameters()

    def zero_grad(self) -> None:
        """Reset all layer gradients to zero."""
        for layer in self.layers:
            layer.zero_grad()

    def forward(
        self, blocks: Sequence[Block], features: np.ndarray
    ) -> np.ndarray:
        """Run all layers; ``blocks[i]`` feeds layer ``i``.

        For full-batch training pass the same whole-graph block for every
        layer; for mini-batch training pass the sampled blocks outermost
        first (layer 0 consumes the largest block).
        """
        if len(blocks) != self.num_layers:
            raise ValueError(
                f"need {self.num_layers} blocks, got {len(blocks)}"
            )
        self._pre_activations = []
        h = features
        for i, (layer, block) in enumerate(zip(self.layers, blocks)):
            if h.shape[0] != block.num_src:
                raise ValueError(
                    f"layer {i}: features cover {h.shape[0]} vertices "
                    f"but block has {block.num_src} sources"
                )
            h = layer.forward(block, h)
            if i < self.num_layers - 1:
                self._pre_activations.append(h)
                h = relu(h)
        return h

    def backward(self, d_logits: np.ndarray) -> np.ndarray:
        """Backprop through the stack; returns grad w.r.t. input features."""
        upstream = d_logits
        for i in reversed(range(self.num_layers)):
            if i < self.num_layers - 1:
                upstream = relu_grad(self._pre_activations[i], upstream)
            upstream = self.layers[i].backward(upstream)
        self._pre_activations = []
        return upstream


def build_model(
    arch: str,
    feature_size: int,
    hidden_dim: int,
    num_classes: int,
    num_layers: int,
    seed: int = 0,
    num_heads: int = 1,
) -> GnnModel:
    """Construct a model matching the paper's sweep dimensions.

    ``arch`` is one of ``sage``, ``gcn``, ``gat``; layer ``i`` maps
    ``feature_size -> hidden -> ... -> hidden -> num_classes``.
    ``num_heads > 1`` applies only to GAT and uses multi-head attention
    on the hidden layers (the output layer stays single-head, as usual).
    """
    arch = arch.lower()
    if arch not in _LAYER_TYPES:
        raise ValueError(f"unknown architecture {arch!r}; use {ARCHITECTURES}")
    if num_layers < 1:
        raise ValueError("num_layers must be at least 1")
    if num_heads > 1 and arch != "gat":
        raise ValueError("num_heads applies to the gat architecture only")
    layer_type = _LAYER_TYPES[arch]
    dims = (
        [feature_size]
        + [hidden_dim] * (num_layers - 1)
        + [num_classes]
    )
    layers: List[GraphLayer] = []
    for i in range(num_layers):
        hidden_layer = i < num_layers - 1
        if arch == "gat" and num_heads > 1 and hidden_layer:
            layers.append(
                MultiHeadGatLayer(
                    dims[i], dims[i + 1], num_heads=num_heads,
                    seed=seed + i,
                )
            )
        else:
            layers.append(layer_type(dims[i], dims[i + 1], seed=seed + i))
    return GnnModel(layers)
