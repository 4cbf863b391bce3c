"""GNN substrate: layers, models, loss, the Adam optimizer, sampling."""

from .activations import leaky_relu, relu, softmax
from .blocks import Block, full_graph_block
from .layers import GatLayer, GcnLayer, GraphLayer, SageLayer
from .loss import accuracy, softmax_cross_entropy
from .models import ARCHITECTURES, GnnModel, build_model
from .optim import Adam
from .sampling import MiniBatch, default_fanouts, sample_blocks, sample_layers

__all__ = [
    "relu",
    "leaky_relu",
    "softmax",
    "Block",
    "full_graph_block",
    "GraphLayer",
    "SageLayer",
    "GcnLayer",
    "GatLayer",
    "softmax_cross_entropy",
    "accuracy",
    "GnnModel",
    "build_model",
    "ARCHITECTURES",
    "Adam",
    "MiniBatch",
    "sample_blocks",
    "sample_layers",
    "default_fanouts",
]
