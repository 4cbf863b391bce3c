"""Tests for message-flow blocks."""

import numpy as np
import pytest

from repro.gnn import Block


def test_block_validation_num_dst():
    with pytest.raises(ValueError):
        Block(np.arange(3), 5, np.zeros(0, np.int64), np.zeros(0, np.int64))


def test_block_validation_edge_ranges():
    with pytest.raises(ValueError):
        Block(np.arange(3), 2, np.array([5]), np.array([0]))
    with pytest.raises(ValueError):
        Block(np.arange(3), 2, np.array([0]), np.array([2]))


def test_block_counts():
    block = Block(
        np.array([7, 8, 9, 10]), 2, np.array([2, 3, 3]), np.array([0, 0, 1])
    )
    assert block.src_ids.shape[0] == 4
    assert block.edge_src.shape[0] == 3
