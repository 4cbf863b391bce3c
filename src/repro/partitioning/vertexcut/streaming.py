"""Shared stateful-streaming machinery for vertex-cut partitioners.

:class:`HdrfState` implements the HDRF scoring rule (Petroni et al., CIKM
2015). It is used directly by :class:`~.hdrf.HdrfPartitioner` and re-used by
HEP's streaming phase for high-degree edges, seeded with the state produced
by the in-memory phase.

There is one drive, :meth:`HdrfState.place_blocks`: edges are streamed
in *chunks* (the ramp of :func:`..chunking.iter_ramp_blocks`); the
balance term is frozen at the start of each chunk, and within a chunk
edges are peeled off in vectorised waves of edges that do not interact
(an edge joins a wave when none of the still-unplaced edges before it
in the stream shares an endpoint other than a saturated one), so each
wave can be scored and committed with numpy batch operations.
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
from typing import Optional, Tuple

import numpy as np

from ...obs import api as obs
from ..chunking import DEFAULT_CHUNK, iter_ramp_blocks
from ..ordering import stable_order

__all__ = ["HdrfState"]

#: Stop peeling vectorised waves when fewer edges than this remain clean.
_MIN_WAVE = 8
#: Cap on peel rounds per chunk: long conflict chains (hub vertices) hit
#: diminishing wave sizes, so after this many rounds the rest of the
#: chunk is finished with the scalar kernel instead.
_MAX_ROUNDS = 10


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
        # Bumped with every membership bit set: a row is non-empty iff > 0.
        self.partial_degree = np.zeros(num_vertices, dtype=np.int64)
        self.loads = np.zeros(num_partitions, dtype=np.int64)
        # membership[v] is all True (flagged at chunk start; never unset).
        self._saturated = np.zeros(num_vertices, dtype=bool)
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
        self, edge: np.ndarray, du: int, dv: int, touched: bool,
        balance: np.ndarray, best: int,
    ) -> int:
        """Place one edge using a pre-computed (chunk-frozen) balance.

        ``du`` / ``dv`` are the endpoints' partial degrees at the edge's
        turn, ``touched`` whether either endpoint held an edge before it
        (see :meth:`_turn_degrees`); an untouched edge keeps ``best``,
        its waterfill slot (see :meth:`_place_chunk`).
        """
        u, v = edge
        if touched:
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            g_u = self.membership[u] * (2.0 - theta_u)  # 1 + (1 - theta)
            g_v = self.membership[v] * (2.0 - theta_v)
            score = g_u + g_v + balance
            best = int(score.argmax())
        self.membership[u, best] = True
        self.membership[v, best] = True
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
        A *saturated* vertex counts as a first occurrence: its row is
        all True at each of its edges' turns and no commit changes it.

        *Untouched* edges (no membership on either endpoint) are balance
        only; the stale chunk balance would dump them all on one
        partition, so they take, in stream order, the least-filled
        partition of a ledger started at the chunk's loads. Nothing else
        reads the ledger, so this is the per-edge rule whichever wave
        commits them; with ``chunk_size=1`` it is ``argmax(balance)``.
        """
        balance = self.balance_vector()
        loops = chunk[:, 0] == chunk[:, 1]
        if not loops.any():
            loops = None
        du, dv, touched = self._turn_degrees(chunk, loops)
        fill = self.loads.tolist()
        for i in np.flatnonzero(~touched).tolist():
            slot = min(range(self.num_partitions), key=fill.__getitem__)
            fill[slot] += 1
            out[i] = slot
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
            is_first |= self._saturated[flat]
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
                for i in remaining.tolist():
                    out[i] = self._place_edge_frozen(
                        chunk[i], du[i], dv[i], touched[i], balance, out[i]
                    )
                break
            self._place_wave(
                chunk[wave], du[wave], dv[wave], touched[wave],
                balance, out, wave,
            )
            remaining = remaining[~clean]
        self.loads += np.bincount(out, minlength=self.num_partitions)

    def _turn_degrees(
        self, chunk: np.ndarray, loops: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-edge ``(du, dv, touched)`` at each edge's turn in the chunk.

        A degree at an edge's turn is the chunk-start degree plus the
        vertex's earlier occurrences in the chunk plus one (a self-loop
        is bumped twice: both ends read the second slot). *Touched*: an
        endpoint had a degree, so a membership bit, before the edge.
        Writes the degrees back and flags saturated repeated vertices.
        """
        flat = chunk.ravel()  # [u_0, v_0, u_1, v_1, ...]
        order = stable_order(flat, self._saturated.shape[0])
        keys = flat[order]
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        starts = np.flatnonzero(new)
        group = np.cumsum(new) - 1
        rank = np.empty(flat.size, dtype=np.int64)
        rank[order] = np.arange(keys.size) - starts[group]
        turn = self.partial_degree[flat] + rank + 1
        firsts = keys[starts]
        sizes = np.bincount(group)
        self.partial_degree[firsts] += sizes
        repeats = firsts[(sizes > 1) & ~self._saturated[firsts]]
        self._saturated[repeats] = self.membership[repeats].all(axis=1)
        du, dv = turn[0::2], turn[1::2]
        touched = (du > 1) | (dv > 1)
        if loops is not None:
            touched[loops] = du[loops] > 1
            du[loops] = dv[loops]
        if self.lambda_balance <= 0:
            touched[:] = True
        return du, dv, touched

    def _place_wave(
        self,
        edges: np.ndarray,
        du: np.ndarray,
        dv: np.ndarray,
        touched: np.ndarray,
        balance: np.ndarray,
        out: np.ndarray,
        rows: np.ndarray,
    ) -> None:
        """Vectorised placement of edges that do not interact.

        No two edges of the wave share a vertex other than a saturated
        one, whose membership bits are all set already, so plain fancy
        indexing (no ``ufunc.at``) is safe. Untouched edges keep their
        waterfill slot from ``out``; membership rows are gathered only
        for the touched ones.
        """
        best = out[rows]
        scored = edges[touched]
        if scored.shape[0]:
            du, dv = du[touched], dv[touched]
            theta_u = du / (du + dv)
            theta_v = 1.0 - theta_u
            # Same elementwise operations, in the same order, as the
            # scalar reference — keeps the float scores bit-identical.
            score = self.membership[scored[:, 0]] * (2.0 - theta_u)[:, None]
            score += self.membership[scored[:, 1]] * (2.0 - theta_v)[:, None]
            score += balance
            best[touched] = score.argmax(axis=1)
        self.membership[edges[:, 0], best] = True
        self.membership[edges[:, 1], best] = True
        out[rows] = best
