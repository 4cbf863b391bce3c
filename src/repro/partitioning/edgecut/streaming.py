"""Shared streaming machinery for greedy vertex (edge-cut) partitioners.

:class:`VertexStreamState` implements the chunk-vectorised inner loop
shared by LDG, reLDG and Fennel: vertices arrive in a stream and each is
placed on the partition maximising ``affinity(counts) - load penalty``,
where ``counts`` is the per-partition tally of the vertex's already
placed neighbours.

There is one drive, :meth:`VertexStreamState.place`, mirroring
:mod:`..vertexcut.streaming`: the vertex order is cut into the chunk
ramp of :func:`~repro.partitioning.chunking.iter_ramp_blocks`; the load
*penalty* term is frozen at the start of each chunk, which lets
neighbour tallies and scores for the whole chunk be computed with numpy
batch operations. Vertices with a neighbour earlier in the same chunk
(whose placement the batch tally cannot see) fall back to scalar
scoring. The scalar per-vertex reference with the same chunked
semantics lives in ``tests/oracles/streaming.py``, which pins this
kernel to it bit for bit.

Two parts of the decision are deliberately kept *live* (per vertex)
rather than frozen:

* capacity eligibility — a partition at its cap is never assigned to,
  no matter how stale the penalty is, so hard balance caps hold exactly;
* the no-placed-neighbour case — such a vertex carries no affinity
  signal and goes to the currently least-loaded open partition (which
  is what the classic per-vertex rule degenerates to); deciding it
  against a frozen penalty would dump every such vertex of a chunk onto
  the same partition.

With ``chunk_size=1`` the semantics degenerates to the classic
per-vertex algorithms.
"""

from __future__ import annotations

import time

import numpy as np

from ...obs import api as obs
from ..chunking import DEFAULT_CHUNK, iter_ramp_blocks

__all__ = ["VertexStreamState"]


class VertexStreamState:
    """Mutable state for LDG-style streaming vertex assignment.

    Parameters
    ----------
    indptr, indices:
        Symmetric CSR adjacency of the graph.
    num_partitions:
        Number of partitions.
    capacity:
        Hard per-partition vertex cap (``slack * n / k``).
    mode:
        ``"ldg"`` — multiplicative penalty ``counts * (1 - sizes/cap)``
        with least-loaded fallback when the best score is non-positive;
        ``"fennel"`` — additive penalty
        ``counts - alpha * gamma * sizes**(gamma-1)``.
    alpha, gamma:
        Fennel penalty coefficients (ignored for ``"ldg"``).
    chunk_size:
        Ceiling of the chunk ramp; the penalty term is refreshed once
        per chunk (see module docstring). No partitioner exposes it; the
        oracle tests drive it down to 1.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        num_partitions: int,
        capacity: float,
        mode: str = "ldg",
        alpha: float = 0.0,
        gamma: float = 1.5,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        if mode not in ("ldg", "fennel"):
            raise ValueError(f"unknown mode {mode!r}")
        self.indptr = indptr
        self.indices = indices
        self.num_partitions = num_partitions
        self.capacity = capacity
        self.mode = mode
        self.alpha = alpha
        self.gamma = gamma
        self.chunk_size = chunk_size
        num_vertices = indptr.shape[0] - 1
        self.assignment = np.full(num_vertices, -1, dtype=np.int32)
        self.sizes = np.zeros(num_partitions, dtype=np.int64)
        # Scratch for in-chunk position lookups (-1 = not in chunk).
        self._chunk_pos = np.full(num_vertices, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    # Frozen per-chunk penalty
    # ------------------------------------------------------------------
    def _penalty(self) -> np.ndarray:
        """The load-penalty term for the current sizes (frozen per chunk).

        For ``"ldg"`` this is the multiplicative factor
        ``1 - sizes/capacity``; for ``"fennel"`` the additive term
        ``alpha * gamma * sizes**(gamma-1)``.
        """
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

    # ------------------------------------------------------------------
    # Streaming passes
    # ------------------------------------------------------------------
    def place(self, order: np.ndarray, vacate: bool = False) -> None:
        """Stream vertices in ``order``, assigning each one.

        ``vacate=True`` (restreaming passes) releases each vertex's old
        slot before re-placing it.
        """
        instrumented = obs.enabled()
        for chunk in iter_ramp_blocks([order], self.chunk_size):
            began = time.perf_counter() if instrumented else 0.0
            self._place_chunk(chunk, vacate)
            if instrumented:
                obs.observe(
                    "partitioner.chunk_seconds",
                    time.perf_counter() - began,
                    kernel=self.mode,
                )
                obs.observe(
                    "partitioner.chunk_items",
                    float(chunk.shape[0]),
                    kernel=self.mode,
                )

    # ------------------------------------------------------------------
    def _place_chunk(self, chunk: np.ndarray, vacate: bool) -> None:
        """Place one chunk: batch tallies + scores, then a cheap commit.

        Neighbour tallies are computed in one batch against the
        chunk-start assignment; a vertex is *dirty* when a neighbour
        occurs earlier in the same chunk (that neighbour's placement is
        invisible to the batch tally) and is re-scored scalar at its
        turn. Capacity eligibility and the no-neighbour fallback use
        live sizes, so the commit takes each vertex's frozen ``argmax``
        and, only when that partition is full, walks the rest of its
        frozen score order (:meth:`_first_open`).
        """
        k = self.num_partitions
        c = chunk.shape[0]
        penalty = self._penalty()
        starts = self.indptr[chunk]
        deg = self.indptr[chunk + 1] - starts
        total = int(deg.sum())
        # Range expansion: flat neighbour list + owning chunk row.
        offsets = np.repeat(np.cumsum(deg) - deg, deg)
        flat = self.indices[
            np.repeat(starts, deg) + (np.arange(total) - offsets)
        ]
        rows = np.repeat(np.arange(c), deg)
        placed = self.assignment[flat]
        valid = placed >= 0
        counts = np.bincount(
            rows[valid] * k + placed[valid], minlength=c * k
        ).reshape(c, k)
        if self.mode == "ldg":
            score = counts * penalty
        else:
            score = counts - penalty
        # Dirty rows: a neighbour sits earlier in this chunk.
        self._chunk_pos[chunk] = np.arange(c)
        nbr_pos = self._chunk_pos[flat]
        conflict = (nbr_pos >= 0) & (nbr_pos < rows)
        dirty = np.zeros(c, dtype=bool)
        dirty[rows[conflict]] = True
        self._chunk_pos[chunk] = -1
        has_nbr = counts.any(axis=1)

        # A row's frozen order (stable sort of -score) starts at its
        # argmax; the rest is walked only when that partition is full.
        first = score.argmax(axis=1)
        first_positive = (score[np.arange(c), first] > 0).tolist()
        first = first.tolist()
        dirty = dirty.tolist()
        has_nbr = has_nbr.tolist()
        sizes = self.sizes.tolist()
        assignment = self.assignment
        capacity = self.capacity
        is_ldg = self.mode == "ldg"
        penalty_list = penalty.tolist()
        for pos, v in enumerate(chunk.tolist()):
            if vacate:
                old = assignment[v]
                if old >= 0:
                    sizes[old] -= 1
            if dirty[pos]:
                best = self._place_dirty(v, penalty_list, sizes)
            elif not has_nbr[pos]:
                best = self._fallback(sizes)
            else:
                best = first[pos]
                positive = first_positive[pos]
                if sizes[best] >= capacity:
                    best = self._first_open(score[pos], sizes)
                    positive = score[pos, best] > 0
                if is_ldg and not positive:
                    best = self._fallback(sizes)
            assignment[v] = best
            sizes[best] += 1
        self.sizes[:] = sizes

    def _first_open(self, row: np.ndarray, sizes: list) -> int:
        """The best-scoring open partition of ``row``, lowest index on ties
        as in the per-vertex rule's argmax (-1: none is open)."""
        for p in np.argsort(-row, kind="stable").tolist():
            if sizes[p] < self.capacity:
                return p
        return -1

    def _place_dirty(
        self, v: int, penalty: list, sizes: list
    ) -> int:
        """Scalar re-score of a vertex whose tally row is stale."""
        nbrs = self.indices[self.indptr[v] : self.indptr[v + 1]]
        placed = self.assignment[nbrs]
        placed = placed[placed >= 0]
        if placed.size == 0:
            return self._fallback(sizes)
        counts = np.bincount(
            placed, minlength=self.num_partitions
        ).tolist()
        is_ldg = self.mode == "ldg"
        best, best_score = -1, -float("inf")
        for p in range(self.num_partitions):
            if sizes[p] >= self.capacity:
                continue
            if is_ldg:
                s = counts[p] * penalty[p]
            else:
                s = counts[p] - penalty[p]
            if s > best_score:
                best, best_score = p, s
        if is_ldg and best_score <= 0:
            return self._fallback(sizes)
        return best
