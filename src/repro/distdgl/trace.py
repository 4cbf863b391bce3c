"""Sampling traces: the measured, parameter-independent half of a step.

A DistDGL step is *measured* (seeds drawn, computation graphs sampled,
each worker's batch reduced to counts) and then *priced* for one
engine's parameters. A :class:`SamplingTrace` records the measured half
once: a run's :class:`StepCounts` plus the generator that draws the next
step. Engines that sample the same way share one (:func:`shared_trace`)
and replay it while their history of active sets equals the recorded one.

A trace keeps O(k) numbers per worker and step, never a block, an id
array or a mini-batch; it dies with its partition and is bounded by the
two constants below. Per process, not thread-safe (like the partition
cache).
"""

from __future__ import annotations

import hashlib
import weakref
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from ..partitioning import VertexPartition

__all__ = ["StepCounts", "SamplingTrace", "TraceError", "shared_trace",
           "clear_traces"]

#: Traces kept per partition, least recently used dropped first (the
#: paper's grids need three: one per layer count).
TRACES_PER_PARTITION = 4
#: Bytes of counts one trace records; an engine that runs past a full
#: trace keeps sampling on a private generator.
TRACE_BYTE_LIMIT = 16 << 20


class TraceError(RuntimeError):
    """A trace does not fit the engine replaying it (not an ``assert``:
    it must fire under ``python -O``)."""


class StepCounts(NamedTuple):
    """What one step's sampling measured (read-only arrays).

    ``active``: the step's ascending active set; ``rng_state``: the
    generator state it started from; ``workers``: the ``m`` active
    workers with a training pool. ``blocks`` unpacks into ``num_dst,
    num_src, num_edges, remote_frontier``, each ``(layers, m)``;
    ``inputs`` into ``num_inputs, num_local, num_remote, cache_hits``,
    each ``(m,)``. ``sample_owners[i, j]`` / ``fetch_owners[i, j]``:
    frontier vertices ``workers[i]`` looked up on, and input features it
    fetched from, owner ``j`` (narrowest unsigned dtype).
    """

    active: Tuple[int, ...]
    rng_state: Dict[str, object]
    workers: np.ndarray
    blocks: np.ndarray
    sample_owners: np.ndarray
    inputs: np.ndarray
    fetch_owners: np.ndarray


class SamplingTrace:
    """The recorded steps of one sampling run and the generator that
    draws the next one (it always stands after the last recorded step)."""

    def __init__(self, seed, num_workers: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.num_workers = num_workers
        self.steps: List[StepCounts] = []
        self.nbytes = 0

    @property
    def full(self) -> bool:
        """True once the byte bound is reached; nothing is added after."""
        return self.nbytes >= TRACE_BYTE_LIMIT

    def append(self, counts: StepCounts) -> None:
        """Record the step just drawn from :attr:`rng`."""
        self.steps.append(counts)
        self.nbytes += sum(
            field.nbytes for field in counts if isinstance(field, np.ndarray)
        )

    def rng_at(self, index: int) -> np.random.Generator:
        """A private generator standing before step ``index``: what a
        fresh ``default_rng(seed)`` is after ``index`` recorded steps."""
        rng = np.random.Generator(type(self.rng.bit_generator)())
        rng.bit_generator.state = (
            self.steps[index].rng_state if index < len(self.steps)
            else self.rng.bit_generator.state
        )
        return rng


_TRACES: "weakref.WeakKeyDictionary[VertexPartition, OrderedDict]" = (
    weakref.WeakKeyDictionary()
)


def shared_trace(
    partition: VertexPartition,
    train: np.ndarray,
    fanouts: Tuple[int, ...],
    global_batch_size: int,
    seed,
    cache_fraction: float,
) -> SamplingTrace:
    """The trace of every engine with these sampling inputs: keyed
    weakly on the partition object and by content on the rest. Only an
    integer seed names a stream; any other gets a trace of its own.
    """
    k = partition.num_partitions
    if not isinstance(seed, (int, np.integer)):
        return SamplingTrace(seed, k)
    # One partition serves different splits: the train ids are content.
    train_digest = hashlib.blake2b(
        np.ascontiguousarray(train), digest_size=16
    ).digest()
    key = (
        train_digest, train.dtype.str, fanouts, global_batch_size,
        int(seed), cache_fraction,
    )
    traces = _TRACES.setdefault(partition, OrderedDict())
    if key not in traces:
        traces[key] = SamplingTrace(seed, k)
        while len(traces) > TRACES_PER_PARTITION:
            traces.popitem(last=False)
    traces.move_to_end(key)
    if traces[key].num_workers != k:
        raise TraceError(
            f"trace recorded for {traces[key].num_workers} workers, "
            f"partition now has {k}"
        )
    return traces[key]


def clear_traces() -> None:
    """Drop every shared trace (``experiments.clear_cache`` calls this)."""
    _TRACES.clear()
