"""Shared fixtures: small deterministic graphs and splits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph, load_dataset, random_split

# A small hand-made graph: two 4-cliques joined by one bridge edge.
# Vertices 0-3 form clique A, 4-7 form clique B, edge (3, 4) bridges.
TWO_CLIQUES_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
    (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
    (3, 4),
]


@pytest.fixture
def two_cliques() -> Graph:
    return Graph(8, TWO_CLIQUES_EDGES, name="two-cliques")


@pytest.fixture
def path_graph() -> Graph:
    """A 10-vertex path: the simplest connected sparse graph."""
    return Graph(10, [(i, i + 1) for i in range(9)], name="path")


@pytest.fixture
def star_graph() -> Graph:
    """Hub 0 connected to 1..19: the degenerate power-law case."""
    return Graph(20, [(0, i) for i in range(1, 20)], name="star")


@pytest.fixture(scope="session")
def tiny_or() -> Graph:
    return load_dataset("OR", "tiny")


@pytest.fixture(scope="session")
def tiny_di() -> Graph:
    return load_dataset("DI", "tiny")


@pytest.fixture(scope="session")
def tiny_hw() -> Graph:
    return load_dataset("HW", "tiny")


@pytest.fixture(scope="session")
def tiny_or_split(tiny_or):
    return random_split(tiny_or, seed=7)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
