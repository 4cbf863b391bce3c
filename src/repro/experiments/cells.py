"""The one cell pipeline: ``CellSpec`` -> ``run_cell`` -> ``run_grid``.

A sweep is ``machines x partitioners x params``; each ``(machines,
partitioner)`` pair — one *cell* — shares a single cached partition
across all its parameter configurations, and cells are completely
independent of each other. Serial, process-parallel and served sweeps
all take the same three steps: a :class:`CellSpec` says what a cell
computes, :func:`run_cell` is the only function that turns one into
records, and :func:`run_grid` expands a grid into ``CellTask(fn=run_cell,
...)`` lists for :func:`~.executor.execute_cells` (``repro serve`` builds
the same tasks from :meth:`repro.serve.SweepJobSpec.cell_specs`). Each
pool worker computes its cell's partition exactly once (the partition
cache is per process), so no partition is computed twice or shipped
between processes, and every simulation is deterministic given its
seed, so every driver and worker count returns record-for-record the
same results (equivalence-tested), in the same order.
``run_distgnn_grid``, ``run_distdgl_grid``, ``run_distgnn_grid_parallel``
and ``run_distdgl_grid_parallel`` are aliases of :func:`run_grid` kept
for their call sites.

Observability: the coordinator's obs *level* is re-applied inside every
cell, and each record carries its own deterministic ``obs_metrics``
summary (simulated quantities only), so serial and parallel sweeps stay
record-identical. Worker-process registries and trace sinks are per
process and are not merged back — stream traces (``--obs-out``) from
serial runs.

Live telemetry: with ``bus_dir`` set, every process that runs cells
appends cell-start/record-done/cell-done/heartbeat events to its own
JSONL stream in the bus directory (see :mod:`repro.obs.live.bus`), which
``repro obs watch`` tails. Each record-done event carries the finished
record in its export form (:func:`~.export.record_to_dict`), so the
watcher analyses the very records the sweep saves. Cell indices are
global submission order
(``cell_offset`` threads the running index across multiple grid
invocations of one sweep). Each cell opens its process's stream and
closes it when the cell ends, so a warm pool worker (or the coordinator)
carries no file handle or cseq state into the next sweep; the stream
file is appended to, so nothing is lost between cells.

With ``cell_callback`` set, the coordinator invokes it as
``callback(cell_index, records)`` for every finished cell *in
submission order*; the callback raising (e.g.
:class:`~repro.obs.live.rules.SweepAborted` from an alert rule)
cancels all not-yet-started cells promptly — the executor drops them
with ``shutdown(wait=False, cancel_futures=True)`` rather than waiting
for running cells to drain — and propagates: the early-stop path of
``repro sweep --abort-on``.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..costmodel import DEFAULT_COST_MODEL, CostModel
from ..graph import Graph, VertexSplit, random_split
from ..obs import api as obs
from .config import CommConfig, FaultConfig, TrainingParams
from .executor import CellTask, execute_cells
from .records import DistDglRecord, DistGnnRecord
from .runner import ENGINES

__all__ = [
    "CellSpec",
    "CellIO",
    "run_cell",
    "run_grid",
    "run_distgnn_grid",
    "run_distdgl_grid",
    "run_distgnn_grid_parallel",
    "run_distdgl_grid_parallel",
]


@dataclass(frozen=True)
class CellSpec:
    """What one sweep cell computes: a ``(machines, partitioner)`` pair
    running its whole parameter grid on one cached partition.

    Every field changes the cell's records, and nothing else does —
    which is what makes the spec the cell's identity.
    """

    engine: str
    partitioner: str
    num_machines: int
    seed: int
    num_epochs: int
    grid: Tuple[TrainingParams, ...]
    fault_config: Optional[FaultConfig] = None
    comm_config: Optional[CommConfig] = None
    cost_model: CostModel = DEFAULT_COST_MODEL

    def key(self, graph_fingerprint: str) -> Tuple:
        """Content identity of the cell on one graph (the serve dedup
        key): two cells with equal keys produce identical records.

        The comm config is part of it — two jobs differing only in
        ``compression`` produce different traffic and must not dedupe
        to one cell. (The *partition* cache key stays comm-free on
        purpose: comm knobs never change the partition, so partitions
        are shared across comm configurations.)
        """
        values = tuple(getattr(self, field.name) for field in fields(self))
        return values[:1] + (graph_fingerprint,) + values[1:]

    @classmethod
    def expand(
        cls,
        engine: str,
        partitioners: Sequence[str],
        machine_counts: Sequence[int],
        grid: Iterable[TrainingParams],
        **shared,
    ) -> List["CellSpec"]:
        """A grid's cells in submission order — machine counts
        outermost; ``shared`` sets the remaining fields of every cell."""
        grid = tuple(grid)
        return [
            cls(engine, name, k, grid=grid, **shared)
            for k in machine_counts
            for name in partitioners
        ]


@dataclass(frozen=True)
class CellIO:
    """Where one cell's telemetry goes; never changes its records.

    ``cell`` is the global cell ordinal the bus and profile artifacts
    are keyed on. ``trace_out`` (a JSONL path) attaches a fresh trace
    sink and ``trace_ctx`` stamps the ambient trace context (the serve
    daemon's ``job``/``tenant`` attribution); ``profile_out`` captures
    the cell under cProfile into that artifact path.
    """

    obs_level: str = "off"
    cell: int = -1
    bus_dir: Optional[str] = None
    trace_out: Optional[str] = None
    trace_ctx: Optional[Dict[str, object]] = None
    profile_out: Optional[str] = None


def _cell_obs(
    obs_level: str,
    trace_out: Optional[str],
    trace_ctx: Optional[Dict[str, object]],
) -> Callable[[], None]:
    """Apply one cell's observability scope; returns the finalizer.

    ``trace_out`` (a JSONL path) attaches a fresh trace sink and
    ``trace_ctx`` stamps the ambient trace context (the serve daemon's
    ``job``/``tenant`` attribution), so every engine event the cell
    emits carries the caller's identity. The finalizer closes the sink
    and clears the context so the next cell in this process starts
    clean.
    """
    obs.configure(obs_level)
    if not trace_out:
        return lambda: None
    from ..obs.sink import JsonlSink

    obs.set_sink(JsonlSink(trace_out))
    obs.set_trace_context(**(trace_ctx or {}))

    def finish() -> None:
        obs.set_sink(None)
        obs.clear_trace_context()

    return finish


@contextlib.contextmanager
def _cell_profile(profile_out: Optional[str], cell: int):
    """Capture this cell's run under cProfile, saved to ``profile_out``.

    A no-op when ``profile_out`` is ``None`` (every sweep without
    ``--profile-out`` / serve trace level). The capture is explicit —
    independent of the ambient ``profile_scope`` switch — and crosses
    process boundaries by riding the cell-task args, since pool
    workers never pass through :meth:`CellTask.run`.
    """
    if not profile_out:
        yield
        return
    from ..obs.profiling import capture as profiling

    with profiling.capture(f"cell-{cell:06d}") as cap:
        yield
    if cap.profile is not None:
        cap.profile.save(profile_out)


def run_cell(
    graph: Graph,
    split: Optional[VertexSplit],
    spec: CellSpec,
    io: CellIO = CellIO(),
) -> List:
    """Run one cell: its whole parameter grid on one cached partition.

    Module-level on purpose — it crosses process boundaries by pickle
    as the ``fn`` of every sweep :class:`~.executor.CellTask`.
    """
    engine = ENGINES[spec.engine]
    extra = {"split": split} if engine.needs_split else {}
    finish_obs = _cell_obs(io.obs_level, io.trace_out, io.trace_ctx)
    writer = None
    if io.bus_dir:
        from ..obs.live.bus import BusWriter

        writer = BusWriter(io.bus_dir)
    started = time.perf_counter()
    if writer:
        writer.cell_start(
            io.cell, spec.engine, graph.name, spec.partitioner,
            spec.num_machines, len(spec.grid),
        )
    try:
        obs.event("span-begin", "serve.cell", cell=io.cell)
        records = []
        with _cell_profile(io.profile_out, io.cell):
            for index, params in enumerate(spec.grid):
                record = engine.run(
                    graph, spec.partitioner, spec.num_machines, params,
                    seed=spec.seed, cost_model=spec.cost_model,
                    fault_config=spec.fault_config,
                    num_epochs=spec.num_epochs,
                    comm_config=spec.comm_config, **extra,
                )
                records.append(record)
                if writer:
                    writer.record_done(io.cell, index, record)
                    writer.heartbeat()
        obs.event(
            "span-end", "serve.cell", cell=io.cell,
            seconds=round(time.perf_counter() - started, 9),
        )
        if writer:
            writer.cell_done(
                io.cell, len(records), time.perf_counter() - started
            )
    finally:
        finish_obs()
        if writer:
            writer.close()
    return records


def run_grid(
    engine: str,
    graph: Graph,
    partitioners: Sequence[str],
    machine_counts: Sequence[int],
    grid: Iterable[TrainingParams],
    split: Optional[VertexSplit] = None,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    workers: Optional[int] = 1,
    fault_config: Optional[FaultConfig] = None,
    num_epochs: int = 1,
    bus_dir: Optional[str] = None,
    cell_callback: Optional[Callable[[int, List], None]] = None,
    cell_offset: int = 0,
    comm_config: Optional[CommConfig] = None,
    profile_dir: Optional[str] = None,
) -> List:
    """Run ``engine`` over partitioners x machines x params.

    Returns the records in ``machines x partitioners x params`` order
    whatever ``workers`` is. ``split`` matters to engines that train on
    a vertex split (DistDGL) and defaults to the seed's
    :func:`~repro.graph.random_split`.
    """
    if ENGINES[engine].needs_split and split is None:
        split = random_split(graph, seed=seed)
    if profile_dir is not None:
        os.makedirs(profile_dir, exist_ok=True)
    specs = CellSpec.expand(
        engine, partitioners, machine_counts, grid, seed=seed,
        num_epochs=num_epochs, fault_config=fault_config,
        comm_config=comm_config, cost_model=cost_model,
    )
    level = obs.level()
    tasks = [
        CellTask(
            index=cell,
            fn=run_cell,
            args=(
                graph, split, spec,
                CellIO(
                    level, cell, bus_dir,
                    profile_out=profile_dir and os.path.join(
                        profile_dir, f"profile-cell-{cell:06d}.json"
                    ),
                ),
            ),
            cost_key=(spec.engine, spec.partitioner, spec.num_machines),
        )
        for cell, spec in enumerate(specs, start=cell_offset)
    ]
    cell_results = execute_cells(
        tasks, workers=workers, cell_callback=cell_callback
    )
    return [
        record for cell_records in cell_results for record in cell_records
    ]


def run_distgnn_grid(
    graph: Graph,
    partitioners: Sequence[str],
    machine_counts: Sequence[int],
    grid: Iterable[TrainingParams],
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    fault_config: Optional[FaultConfig] = None,
    num_epochs: int = 1,
    comm_config: Optional[CommConfig] = None,
) -> List[DistGnnRecord]:
    """Alias: serial :func:`run_grid` over the DistGNN engine."""
    return run_grid(
        "distgnn", graph, partitioners, machine_counts, grid, seed=seed,
        cost_model=cost_model, fault_config=fault_config,
        num_epochs=num_epochs, comm_config=comm_config,
    )


def run_distdgl_grid(
    graph: Graph,
    partitioners: Sequence[str],
    machine_counts: Sequence[int],
    grid: Iterable[TrainingParams],
    split: Optional[VertexSplit] = None,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    fault_config: Optional[FaultConfig] = None,
    num_epochs: int = 1,
    comm_config: Optional[CommConfig] = None,
) -> List[DistDglRecord]:
    """Alias: serial :func:`run_grid` over the DistDGL engine."""
    return run_grid(
        "distdgl", graph, partitioners, machine_counts, grid, split=split,
        seed=seed, cost_model=cost_model, fault_config=fault_config,
        num_epochs=num_epochs, comm_config=comm_config,
    )


def run_distgnn_grid_parallel(
    graph: Graph,
    partitioners: Sequence[str],
    machine_counts: Sequence[int],
    grid: Iterable[TrainingParams],
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    workers: Optional[int] = None,
    fault_config: Optional[FaultConfig] = None,
    num_epochs: int = 1,
    bus_dir: Optional[str] = None,
    cell_callback: Optional[Callable[[int, List], None]] = None,
    cell_offset: int = 0,
    comm_config: Optional[CommConfig] = None,
    profile_dir: Optional[str] = None,
) -> List[DistGnnRecord]:
    """Alias: :func:`run_grid` over the DistGNN engine, pooled by default."""
    return run_grid(
        "distgnn", graph, partitioners, machine_counts, grid, seed=seed,
        cost_model=cost_model, workers=workers, fault_config=fault_config,
        num_epochs=num_epochs, bus_dir=bus_dir,
        cell_callback=cell_callback, cell_offset=cell_offset,
        comm_config=comm_config, profile_dir=profile_dir,
    )


def run_distdgl_grid_parallel(
    graph: Graph,
    partitioners: Sequence[str],
    machine_counts: Sequence[int],
    grid: Iterable[TrainingParams],
    split: Optional[VertexSplit] = None,
    seed: int = 0,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    workers: Optional[int] = None,
    fault_config: Optional[FaultConfig] = None,
    num_epochs: int = 1,
    bus_dir: Optional[str] = None,
    cell_callback: Optional[Callable[[int, List], None]] = None,
    cell_offset: int = 0,
    comm_config: Optional[CommConfig] = None,
    profile_dir: Optional[str] = None,
) -> List[DistDglRecord]:
    """Alias: :func:`run_grid` over the DistDGL engine, pooled by default."""
    return run_grid(
        "distdgl", graph, partitioners, machine_counts, grid, split=split,
        seed=seed, cost_model=cost_model, workers=workers,
        fault_config=fault_config, num_epochs=num_epochs, bus_dir=bus_dir,
        cell_callback=cell_callback, cell_offset=cell_offset,
        comm_config=comm_config, profile_dir=profile_dir,
    )
