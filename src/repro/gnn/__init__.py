"""GNN substrate: DGL-style fan-out sampling into message-flow blocks."""

from .blocks import Block
from .sampling import MiniBatch, default_fanouts, sample_blocks, sample_layers

__all__ = [
    "Block",
    "MiniBatch",
    "sample_blocks",
    "sample_layers",
    "default_fanouts",
]
