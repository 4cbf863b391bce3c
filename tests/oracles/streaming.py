"""Scalar reference kernels of HDRF and the LDG family, verbatim.

``HdrfState.place_edges_reference`` and ``VertexStreamState.place_reference``
exactly as they shipped in ``repro.partitioning`` behind the partitioners'
``vectorised=False`` switch, with the ``chunk_spans`` ramp they walked and
the scalar per-item rules they call (``balance_vector`` and
``_place_edge_frozen`` for HDRF, ``_penalty`` and ``_fallback`` for the
LDG family) — copied rather than inherited, so a change to a production
rule shows up as a mismatch instead of moving the reference with it.

:class:`OracleHdrfState` and :class:`OracleVertexStreamState` put the
references in place of the production drives (``place_edges`` /
``place``); :func:`streaming_kernels` builds every partitioner's
streaming state from either class at a chosen chunk ceiling. Do not tidy
the bodies — they are the reference the production kernels are pinned
against (see ``tests/oracles/test_streaming_identity.py``).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Iterator, Optional, Tuple
from unittest import mock

import numpy as np

from repro.partitioning.chunking import DEFAULT_CHUNK, MIN_CHUNK
from repro.partitioning.edgecut import ldg
from repro.partitioning.edgecut.streaming import VertexStreamState
from repro.partitioning.extensions import fennel, ne, reldg
from repro.partitioning.vertexcut import hdrf, hep
from repro.partitioning.vertexcut.streaming import HdrfState

__all__ = [
    "chunk_spans",
    "OracleHdrfState",
    "OracleVertexStreamState",
    "streaming_kernels",
]

#: Partitioner modules that build an ``HdrfState`` / a ``VertexStreamState``.
HDRF_STATE_USERS = (hdrf, hep, ne)
VERTEX_STATE_USERS = (ldg, fennel, reldg)


def chunk_spans(
    total: int, chunk_size: int = DEFAULT_CHUNK
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` spans ramping from MIN_CHUNK to chunk_size."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    size = min(MIN_CHUNK, chunk_size)
    start = 0
    while start < total:
        stop = min(start + size, total)
        yield start, stop
        start = stop
        size = min(size * 2, chunk_size)


class OracleHdrfState(HdrfState):
    """``HdrfState`` whose ``place_edges`` is the scalar reference."""

    def place_edges(self, edges: np.ndarray) -> np.ndarray:
        return self.place_edges_reference(edges)

    def balance_vector(self) -> np.ndarray:
        """The balance term for the current loads (frozen per chunk)."""
        max_load = self.loads.max()
        min_load = self.loads.min()
        return (
            self.lambda_balance
            * (max_load - self.loads)
            / (1e-9 + max_load - min_load)
        )

    def _place_edge_frozen(
        self, u: int, v: int, balance: np.ndarray, fill: np.ndarray
    ) -> int:
        """Place one edge using a pre-computed (chunk-frozen) balance."""
        self.partial_degree[u] += 1
        self.partial_degree[v] += 1
        mu = self.membership[u]
        mv = self.membership[v]
        if self.lambda_balance > 0 and not (mu.any() or mv.any()):
            best = int(fill.argmin())
            fill[best] += 1
        else:
            du = self.partial_degree[u]
            dv = self.partial_degree[v]
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            g_u = mu * (2.0 - theta_u)  # 1 + (1 - theta)
            g_v = mv * (2.0 - theta_v)
            score = g_u + g_v + balance
            best = int(score.argmax())
        self.membership[u, best] = True
        self.membership[v, best] = True
        self.loads[best] += 1
        return best

    def place_edges_reference(self, edges: np.ndarray) -> np.ndarray:
        """Retained scalar reference for :meth:`place_edges`."""
        assignment = np.empty(edges.shape[0], dtype=np.int32)
        for start, stop in chunk_spans(edges.shape[0], self.chunk_size):
            balance = self.balance_vector()
            fill = self.loads.copy()
            for i in range(start, stop):
                assignment[i] = self._place_edge_frozen(
                    int(edges[i, 0]), int(edges[i, 1]), balance, fill
                )
        return assignment


class OracleVertexStreamState(VertexStreamState):
    """``VertexStreamState`` whose ``place`` is the scalar reference."""

    def place(self, order: np.ndarray, vacate: bool = False) -> None:
        self.place_reference(order, vacate)

    def _penalty(self) -> np.ndarray:
        """The load-penalty term for the current sizes (frozen per chunk)."""
        if self.mode == "ldg":
            return 1.0 - self.sizes / self.capacity
        return self.alpha * self.gamma * self.sizes ** (self.gamma - 1.0)

    def _fallback(self, sizes: list) -> int:
        """Least-loaded open partition, first index winning ties (live)."""
        best, best_size = -1, float("inf")
        for p in range(self.num_partitions):
            s = sizes[p]
            if s < self.capacity and s < best_size:
                best, best_size = p, s
        return best

    def place_reference(
        self, order: np.ndarray, vacate: bool = False
    ) -> None:
        """Retained scalar reference for :meth:`place`."""
        k = self.num_partitions
        for start, stop in chunk_spans(order.shape[0], self.chunk_size):
            penalty = self._penalty()
            for v in order[start:stop]:
                v = int(v)
                old = int(self.assignment[v])
                if vacate and old >= 0:
                    self.sizes[old] -= 1
                nbrs = self.indices[self.indptr[v] : self.indptr[v + 1]]
                placed = self.assignment[nbrs]
                placed = placed[placed >= 0]
                if placed.size == 0:
                    best = self._fallback(self.sizes)
                else:
                    counts = np.bincount(placed, minlength=k)
                    if self.mode == "ldg":
                        score = counts * penalty
                    else:
                        score = counts - penalty
                    score[self.sizes >= self.capacity] = -np.inf
                    best = int(score.argmax())
                    if self.mode == "ldg" and score[best] <= 0:
                        best = self._fallback(self.sizes)
                self.assignment[v] = best
                self.sizes[best] += 1


@contextlib.contextmanager
def streaming_kernels(oracle: bool, chunk_size: Optional[int] = None):
    """Build every streaming state from the oracle (or production) class.

    Inside the block, each partitioner module that constructs an
    ``HdrfState`` or a ``VertexStreamState`` gets the chosen class, with
    its chunk ramp capped at ``chunk_size`` — the knob no partitioner
    exposes — or at the state's own default when it is ``None``.
    """
    states = (
        (OracleHdrfState, OracleVertexStreamState)
        if oracle
        else (HdrfState, VertexStreamState)
    )
    with contextlib.ExitStack() as stack:
        for modules, name, cls in (
            (HDRF_STATE_USERS, "HdrfState", states[0]),
            (VERTEX_STATE_USERS, "VertexStreamState", states[1]),
        ):
            factory = (
                cls
                if chunk_size is None
                else functools.partial(cls, chunk_size=chunk_size)
            )
            for module in modules:
                stack.enter_context(mock.patch.object(module, name, factory))
        yield
