"""Tests for multi-layer models."""

import numpy as np
import pytest

from repro.gnn import (
    ARCHITECTURES,
    Adam,
    build_model,
    full_graph_block,
    softmax_cross_entropy,
)


@pytest.mark.parametrize("arch", ARCHITECTURES)
class TestBuildModel:
    def test_layer_dims(self, arch):
        model = build_model(arch, 16, 32, 5, 3)
        assert model.num_layers == 3
        assert model.layers[0].dim_in == 16
        assert model.layers[1].dim_in == 32
        assert model.layers[-1].dim_out == 5

    def test_forward_full_graph(self, arch, two_cliques, rng):
        model = build_model(arch, 4, 8, 3, 2, seed=0)
        block = full_graph_block(two_cliques)
        logits = model.forward([block, block], rng.normal(size=(8, 4)))
        assert logits.shape == (8, 3)

    def test_training_reduces_loss(self, arch, two_cliques, rng):
        """Clique membership is learnable from features in a few steps."""
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        x = rng.normal(size=(8, 4)) * 0.1
        x[:4, 0] += 1.0
        x[4:, 1] += 1.0
        model = build_model(arch, 4, 8, 2, 2, seed=0)
        optimizer = Adam(lr=0.05)
        block = full_graph_block(two_cliques)
        losses = []
        for _ in range(40):
            model.zero_grad()
            logits = model.forward([block, block], x)
            loss, grad = softmax_cross_entropy(logits, labels)
            model.backward(grad)
            optimizer.step(model.parameters())
            losses.append(loss)
        assert losses[-1] < 0.5 * losses[0]


def test_unknown_arch_rejected():
    with pytest.raises(ValueError):
        build_model("transformer", 4, 8, 2, 2)


def test_zero_layers_rejected():
    with pytest.raises(ValueError):
        build_model("sage", 4, 8, 2, 0)


def test_block_count_mismatch_rejected(two_cliques, rng):
    model = build_model("sage", 4, 8, 2, 2)
    block = full_graph_block(two_cliques)
    with pytest.raises(ValueError):
        model.forward([block], rng.normal(size=(8, 4)))


def test_feature_size_mismatch_rejected(two_cliques, rng):
    model = build_model("sage", 4, 8, 2, 2)
    block = full_graph_block(two_cliques)
    with pytest.raises(ValueError):
        model.forward([block, block], rng.normal(size=(5, 4)))


def test_num_params_counts_all_layers():
    model = build_model("sage", 4, 8, 2, 2)
    manual = sum(layer.num_params for layer in model.layers)
    assert model.num_params == manual


class TestMultiHeadGat:
    def test_hidden_layers_multi_head(self):
        model = build_model("gat", 8, 16, 4, 3, seed=0, num_heads=4)
        from repro.gnn.layers import GatLayer, MultiHeadGatLayer

        assert isinstance(model.layers[0], MultiHeadGatLayer)
        assert isinstance(model.layers[1], MultiHeadGatLayer)
        assert isinstance(model.layers[2], GatLayer)  # output single-head

    def test_forward_backward(self, two_cliques, rng):
        model = build_model("gat", 4, 8, 3, 2, seed=0, num_heads=2)
        block = full_graph_block(two_cliques)
        logits = model.forward([block, block], rng.normal(size=(8, 4)))
        assert logits.shape == (8, 3)
        model.backward(rng.normal(size=logits.shape))

    def test_heads_rejected_for_other_archs(self):
        with pytest.raises(ValueError):
            build_model("sage", 4, 8, 2, 2, num_heads=4)
