"""Train/validation/test vertex splits.

The paper randomly splits every graph into 10% training, 10% validation and
80% test vertices; DistDGL's mini-batch sampling seeds from the training
vertices of each partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import Graph

__all__ = ["VertexSplit", "random_split"]


@dataclass(frozen=True)
class VertexSplit:
    """Disjoint train/valid/test vertex id arrays covering all vertices."""

    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @property
    def num_vertices(self) -> int:
        """Vertices covered by train, valid and test together."""
        return len(self.train) + len(self.valid) + len(self.test)

    def train_mask(self, num_vertices: int) -> np.ndarray:
        """Boolean mask over all vertices: True on the training set."""
        mask = np.zeros(num_vertices, dtype=bool)
        mask[self.train] = True
        return mask


def random_split(
    graph: Graph,
    train_fraction: float = 0.1,
    valid_fraction: float = 0.1,
    seed: int = 0,
) -> VertexSplit:
    """Uniform random split, 10/10/80 by default as in the paper."""
    if train_fraction < 0 or valid_fraction < 0:
        raise ValueError("fractions must be non-negative")
    if train_fraction + valid_fraction > 1.0:
        raise ValueError("train + valid fraction exceeds 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(graph.num_vertices)
    num_train = int(round(train_fraction * graph.num_vertices))
    num_valid = int(round(valid_fraction * graph.num_vertices))
    return VertexSplit(
        train=np.sort(order[:num_train]),
        valid=np.sort(order[num_train : num_train + num_valid]),
        test=np.sort(order[num_train + num_valid :]),
    )
