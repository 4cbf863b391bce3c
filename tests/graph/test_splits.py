"""Tests for train/valid/test splits."""

import numpy as np
import pytest

from repro.graph import random_split


def test_default_fractions(tiny_or):
    split = random_split(tiny_or, seed=0)
    n = tiny_or.num_vertices
    assert abs(len(split.train) - 0.1 * n) <= 1
    assert abs(len(split.valid) - 0.1 * n) <= 1
    assert split.num_vertices == n


def test_partitions_are_disjoint_and_cover(tiny_or):
    split = random_split(tiny_or, seed=1)
    combined = np.concatenate([split.train, split.valid, split.test])
    assert np.array_equal(np.sort(combined), np.arange(tiny_or.num_vertices))


def test_deterministic(tiny_or):
    a = random_split(tiny_or, seed=5)
    b = random_split(tiny_or, seed=5)
    assert np.array_equal(a.train, b.train)


def test_seed_changes_split(tiny_or):
    a = random_split(tiny_or, seed=5)
    b = random_split(tiny_or, seed=6)
    assert not np.array_equal(a.train, b.train)


def test_invalid_fractions(tiny_or):
    with pytest.raises(ValueError):
        random_split(tiny_or, train_fraction=0.9, valid_fraction=0.3)
    with pytest.raises(ValueError):
        random_split(tiny_or, train_fraction=-0.1)
