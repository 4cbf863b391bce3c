"""Shared stateful-streaming machinery for vertex-cut partitioners.

:class:`HdrfState` implements the HDRF scoring rule (Petroni et al., CIKM
2015). It is used directly by :class:`~.hdrf.HdrfPartitioner` and re-used by
HEP's streaming phase for high-degree edges, seeded with the state produced
by the in-memory phase.

There is one drive, :meth:`HdrfState.place_blocks`: edges are streamed
in *chunks* (the ramp of :func:`..chunking.iter_ramp_blocks`); the
balance term is frozen at the start of each chunk, and within a chunk
edges are peeled off in vectorised waves of mutually vertex-disjoint
edges (an edge joins a wave when none of the still-unplaced edges
before it in the stream shares an endpoint), so each wave can be scored
and committed with numpy batch operations.
:meth:`HdrfState.place_edges` is that drive over a single in-memory
block. The scalar per-edge reference with the same chunked semantics
lives in ``tests/oracles/streaming.py``, which pins this kernel to it
bit for bit.

The chunked semantics is the only (documented) deviation from classic
edge-at-a-time HDRF: partition loads used by the balance term are
refreshed per chunk instead of per edge. The chunk schedule ramps up
geometrically from :data:`..chunking.MIN_CHUNK` so the early stream —
where the balance term is the only signal — still spreads edges across
partitions; the transient load imbalance this introduces is bounded by
the final chunk size, which is negligible against the partition sizes
of the experiment graphs. With ``chunk_size=1`` the semantics
degenerates to the classic per-edge algorithm.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ...obs import api as obs
from ..chunking import DEFAULT_CHUNK, iter_ramp_blocks

__all__ = ["HdrfState"]

#: Stop peeling vectorised waves when fewer edges than this remain clean.
_MIN_WAVE = 8
#: Cap on peel rounds per chunk: long conflict chains (hub vertices) hit
#: diminishing wave sizes, so after this many rounds the rest of the
#: chunk is finished with the scalar kernel instead.
_MAX_ROUNDS = 6


class HdrfState:
    """Mutable state for HDRF-style streaming edge assignment.

    Parameters
    ----------
    num_vertices, num_partitions:
        Graph and partitioning dimensions.
    lambda_balance:
        Weight of the balance term (paper default 1.1: mild balancing).
    chunk_size:
        Ceiling of the chunk ramp; the balance term is refreshed once per
        chunk (see module docstring). No partitioner exposes it; the
        oracle tests drive it down to 1.
    """

    def __init__(
        self,
        num_vertices: int,
        num_partitions: int,
        lambda_balance: float = 1.1,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        self.num_partitions = num_partitions
        self.lambda_balance = lambda_balance
        self.chunk_size = chunk_size
        # membership[v, p] == True iff v already has an edge on partition p.
        self.membership = np.zeros(
            (num_vertices, num_partitions), dtype=bool
        )
        self.partial_degree = np.zeros(num_vertices, dtype=np.int64)
        self.loads = np.zeros(num_partitions, dtype=np.int64)
        # Uninitialised scratch for first-occurrence detection in the
        # peel loop; only positions written in a round are read back.
        self._scratch = np.empty(num_vertices, dtype=np.int64)

    def seed_from(
        self, edges: np.ndarray, assignment: np.ndarray
    ) -> None:
        """Absorb an existing partial assignment (HEP's in-memory phase)."""
        if edges.size == 0:
            return
        self.membership[edges[:, 0], assignment] = True
        self.membership[edges[:, 1], assignment] = True
        np.add.at(self.partial_degree, edges[:, 0], 1)
        np.add.at(self.partial_degree, edges[:, 1], 1)
        self.loads += np.bincount(assignment, minlength=self.num_partitions)

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
        """Place one edge using a pre-computed (chunk-frozen) balance.

        ``fill`` is the chunk's waterfill ledger for *untouched* edges
        (no membership signal on either endpoint): their decision is
        balance-only, and the stale chunk balance would dump them all on
        one partition, so they instead go to the least-filled partition
        and bump the ledger. Untouched edges always surface in the first
        peel wave of a chunk (any earlier conflicting edge would have
        marked an endpoint), which is what lets the vectorised kernel
        reproduce this rule bit-identically. With a fresh balance vector
        (``chunk_size=1``) ``argmin(fill)`` equals ``argmax(balance)``
        and the classic behaviour is preserved.
        """
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

    # ------------------------------------------------------------------
    # Batch kernels
    # ------------------------------------------------------------------
    def place_edges(self, edges: np.ndarray) -> np.ndarray:
        """Stream ``edges`` (in given order) and return their assignment.

        :meth:`place_blocks` over the single block ``edges``; an empty
        input gives an empty int32 array.
        """
        parts = [out for _, out in self.place_blocks([edges])]
        if not parts:
            return np.empty(0, dtype=np.int32)
        return np.concatenate(parts)

    def place_blocks(self, blocks):
        """Stream an iterable of edge blocks, yielding per-span results.

        ``blocks`` (the whole edge array, or e.g.
        :meth:`EdgeChunkReader.iter_chunks`) is re-chunked through
        :func:`~repro.partitioning.chunking.iter_ramp_blocks`, whose spans
        depend only on the concatenated stream, so the assignments are
        bit-identical in memory and out of core whatever the incoming
        block sizes. Yields ``(span_edges, span_assignment)`` pairs; peak
        memory is bounded by the largest incoming block plus the O(n k)
        state.
        """
        instrumented = obs.enabled()
        for span in iter_ramp_blocks(blocks, self.chunk_size):
            out = np.empty(span.shape[0], dtype=np.int32)
            began = time.perf_counter() if instrumented else 0.0
            self._place_chunk(span, out)
            if instrumented:
                obs.observe(
                    "partitioner.chunk_seconds",
                    time.perf_counter() - began,
                    kernel="hdrf",
                )
                obs.observe(
                    "partitioner.chunk_items",
                    float(span.shape[0]),
                    kernel="hdrf",
                )
            yield span, out

    def _place_chunk(self, chunk: np.ndarray, out: np.ndarray) -> None:
        """Place one chunk, writing partition ids into ``out`` (a view).

        Edges are peeled in waves of stream-prefix-disjoint edges: an edge
        is *clean* when neither endpoint occurs in an earlier unplaced
        edge of the chunk. Clean edges never interact with the state
        mutations of the other unplaced edges, so a whole wave can be
        scored against the committed state and placed in one batch;
        committed edges *later* in the stream are always vertex-disjoint
        from the remaining ones, so commit order cannot leak forward.
        """
        balance = self.balance_vector()
        fill = self.loads.copy()
        loops = chunk[:, 0] == chunk[:, 1]
        if not loops.any():
            loops = None
        remaining = np.arange(chunk.shape[0])
        rounds = 0
        while remaining.size:
            flat = chunk[remaining].ravel()
            # First-occurrence detection in O(n): reversed fancy
            # assignment leaves each vertex's *earliest* position in the
            # scratch slot, so a position is a first occurrence iff the
            # slot still holds it.
            positions = np.arange(flat.size)
            self._scratch[flat[::-1]] = positions[::-1]
            is_first = self._scratch[flat] == positions
            clean = is_first[0::2] & is_first[1::2]
            if loops is not None:
                # A self-loop's second endpoint repeats its first; the
                # loop is clean when that first one is a first occurrence.
                clean |= is_first[0::2] & loops[remaining]
            wave = remaining[clean]
            rounds += 1
            if rounds > _MAX_ROUNDS or wave.size < min(
                _MIN_WAVE, remaining.size
            ):
                # Conflict chains too dense (e.g. a hub dominating the
                # chunk): finish the chunk scalar-wise.
                for i in remaining:
                    out[i] = self._place_edge_frozen(
                        int(chunk[i, 0]), int(chunk[i, 1]), balance, fill
                    )
                return
            self._place_wave(
                chunk[wave],
                None if loops is None else loops[wave],
                balance,
                fill,
                out,
                wave,
            )
            remaining = remaining[~clean]

    def _place_wave(
        self,
        edges: np.ndarray,
        loops: Optional[np.ndarray],
        balance: np.ndarray,
        fill: np.ndarray,
        out: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Vectorised placement of vertex-disjoint edges.

        No two edges of the wave share a vertex, so plain fancy indexing
        (no ``ufunc.at``) is safe, and both endpoints of all edges can be
        processed through single fused gathers/scatters. A self-loop's
        two endpoint slots hold the same vertex and the same values;
        ``loops`` marks them (``None`` when the chunk has none).
        """
        c = rows.size
        ends = edges.T.reshape(-1)  # [u_0..u_c-1, v_0..v_c-1]
        pd = self.partial_degree[ends] + 1
        if loops is not None:
            # The per-edge rule bumps a self-loop's vertex twice.
            pd += np.concatenate([loops, loops])
        self.partial_degree[ends] = pd
        mem = self.membership[ends]  # (2c, k) gather
        best = np.empty(c, dtype=np.int64)
        seen = mem.any(axis=1)
        touched = seen[:c] | seen[c:]
        if self.lambda_balance <= 0:
            touched[:] = True
        if not touched.all():
            # Balance-only decisions: exact sequential waterfill on the
            # chunk ledger (see _place_edge_frozen). Pure-python argmin
            # over <=k entries per edge; untouched edges are rare after
            # the first few chunks.
            untouched = np.flatnonzero(~touched)
            fill_list = fill.tolist()
            k = self.num_partitions
            targets = []
            for _ in range(untouched.size):
                t = min(range(k), key=fill_list.__getitem__)
                fill_list[t] += 1
                targets.append(t)
            fill[:] = fill_list
            best[untouched] = targets
            ti = np.flatnonzero(touched)
            mu, mv = mem[:c][ti], mem[c:][ti]
            du, dv = pd[:c][ti], pd[c:][ti]
        else:
            ti = None
            mu, mv = mem[:c], mem[c:]
            du, dv = pd[:c], pd[c:]
        if mu.shape[0]:
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            # Same elementwise operations, in the same order, as the
            # scalar reference — keeps the float scores bit-identical.
            score = (
                mu * (2.0 - theta_u)[:, None]
                + mv * (2.0 - theta_v)[:, None]
                + balance
            )
            if ti is None:
                best[:] = score.argmax(axis=1)
            else:
                best[ti] = score.argmax(axis=1)
        self.membership[ends, np.concatenate([best, best])] = True
        self.loads += np.bincount(best, minlength=self.num_partitions)
        out[rows] = best
