"""The five benchmark workloads and their one table of size constants.

Every workload is made of *rounds*: a round is a fixed, seed-determined
amount of work whose wall time is measured from outside, through the
layers' public functions only. ``bench/worker.py`` repeats rounds until
``--seconds`` are used (untraced pass) or runs one untraced and one
traced round on the same inputs (traced pass).

Hooks, in call order: ``setup`` (everything before the timed region),
then per round ``prepare`` (untimed), ``round`` (timed) and
``after_round`` (untimed: export, validation), then ``teardown`` (stop
children), ``probes`` (traced pass only: stand-alone layer probes),
``check`` (end-of-run correctness) and ``layer_metrics``.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
from checks import Ops
from tracing import NullTracer, Tracer

from repro.costmodel import DEFAULT_COST_MODEL
from repro.distdgl import DistDglEngine
from repro.distgnn import DistGnnEngine
from repro.experiments import (
    CellTask,
    TrainingParams,
    cache_size,
    cached_edge_partition,
    cached_vertex_partition,
    clear_cache,
    execute_cells,
    records_to_json,
    reduced_grid,
    run_distdgl_grid,
    run_distdgl_grid_parallel,
    run_distgnn_grid,
    run_distgnn_grid_parallel,
)
from repro.gnn import default_fanouts, sample_blocks
from repro.graph import (
    load_dataset,
    powerlaw_cluster_graph,
    random_split,
    rmat_edge_chunks,
    spool_edges,
)
from repro.obs import api as obs
from repro.obs.serve_metrics import prometheus_name
from repro.partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    LdgPartitioner,
    edge_partition_quality,
    make_edge_partitioner,
    shuffle_stream,
    vertex_partition_quality,
)
from repro.serve import ServeClient, ServeError

#: The size table. ``full`` is what BENCHMARK.json measures; it was
#: shrunk from ISSUE 11's probe sizes (OR+DI at small, 27-config grid,
#: 300 jobs, 4e6 edges) so that a round lasts 2-11 s and 114 driver runs
#: fit the 3420 s cap — partitioner sets were never shrunk. ``quick`` is
#: the self-test's size (one round each, < 30 s for all five workloads).
SIZES: Dict[str, Dict[str, object]] = {
    "full": {
        # ``OR``'s generator between its ``tiny`` and ``small`` scales.
        "graph": {
            "num_vertices": 1500, "edges_per_vertex": 14,
            "triangle_prob": 0.35, "community_mean_size": 45,
        },
        "cold_graphs": 3,
        "warm_graphs": 1,
        "cold_machines": (8, 32),
        "warm_gnn_machines": (8, 32),
        "warm_dgl_machines": (4, 16),
        "warm_dgl_partitioners": ("random", "metis"),
        "workers": 2,
        "fanout_check_cells": 6,
        "clients": 2,
        # Per tenant and round: 12 fresh jobs + 4 resubmissions (25 %).
        "job_graphs": ("OR", "DI"),
        "resubmits_per_round": 4,
        "served_check_jobs": 10,
        "stream_scale": 16,
        "stream_edges": 1_000_000,
        "stream_chunk": 1 << 16,
        "stream_k": 32,
        "sampling_batches": 200,
        "noop_cells": 32,
        "metrics_scrapes": 20,
    },
}
SIZES["quick"] = dict(
    SIZES["full"],
    # ``OR`` at ``tiny``.
    graph={
        "num_vertices": 700, "edges_per_vertex": 8,
        "triangle_prob": 0.35, "community_mean_size": 35,
    },
    cold_graphs=1,
    fanout_check_cells=3,
    clients=1,
    job_graphs=("OR",),
    resubmits_per_round=2,
    served_check_jobs=3,
    stream_scale=13,
    stream_edges=100_000,
    stream_chunk=1 << 14,
    sampling_batches=20,
    noop_cells=8,
    metrics_scrapes=5,
)

#: The partitioner pairs of a served round's fresh jobs: every
#: partitioner once per engine.
JOB_PAIRS = {
    "distgnn": (("random", "hep10"), ("dbh", "hep100"), ("hdrf", "2ps-l")),
    "distdgl": (("random", "kahip"), ("ldg", "metis"), ("spinner", "bytegnn")),
}
#: Exact resubmissions are drawn from the tenant's last specs, so the
#: daemon's 512-cell LRU never evicts before reuse and the dedup counts
#: repeat exactly.
RESUBMIT_WINDOW = 16
POLL_INTERVAL_S = 0.002
TERMINAL_STATES = ("done", "failed", "cancelled", "aborted")


@dataclass
class Context:
    """What a workload gets from the worker process."""

    seed: int
    sizes: Dict[str, object]
    out_dir: str
    ops: Ops
    #: The traced pass's recorder (a NullTracer in the untraced pass).
    tracer: object = field(default_factory=NullTracer)

    def round_seed(self, r: int) -> int:
        """The input seed of round ``r``: every round sees fresh inputs."""
        return self.seed * 1000 + r


class Workload:
    """Hook defaults; see the module docstring for the call order."""

    name = ""
    #: Concurrent client lanes whose spans add up to the round's wall.
    lanes = 1

    def __init__(self) -> None:
        #: Export-form records of the latest round (``sim.*``, checks).
        self.exported: List[Dict[str, object]] = []

    def setup(self, ctx: Context) -> None:
        """Everything before the timed region (counted in ``setup_s``)."""

    def prepare(self, ctx: Context, r: int) -> None:
        """Untimed preparation of round ``r``."""

    def round(self, ctx: Context, r: int, tracer) -> Tuple[int, object]:
        """The timed round: ``(items delivered, payload)``."""
        raise NotImplementedError

    def after_round(self, ctx: Context, r: int, payload: object, tracer) -> None:
        """Untimed: export and verify what the round delivered (``tracer``
        is the one the round ran under)."""

    def teardown(self, ctx: Context) -> None:
        """Stop every child process and remove scratch files."""

    def probes(self, ctx: Context, tracer: Tracer) -> None:
        """Traced pass only: stand-alone probes of single layers."""

    def check(self, ctx: Context) -> None:
        """End-of-run correctness checks."""

    def layer_metrics(
        self, ctx: Context, tracer: Tracer, untraced_wall: float
    ) -> Dict[str, float]:
        """This workload's per-layer metrics from the traced round."""
        return {}


# ----------------------------------------------------------------------
# Staged cells: the traced pass drives a cell stage by stage through the
# layers' public functions, in the order run_distgnn / run_distdgl do.
# ----------------------------------------------------------------------
def _cached_partition(tracer, family: str, graph, name: str, k: int, seed: int):
    """``cached_*_partition`` under a span named by what it turned out
    to be: a cache miss is the kernel, a hit is a lookup."""
    fetch = cached_edge_partition if family == "edge" else cached_vertex_partition
    before = cache_size()
    with tracer.span(
        "experiments.cache.hit_lookup", family=family, algo=name, k=k
    ) as span:
        partition, _ = fetch(graph, name, k, seed)
        if cache_size() > before:
            span["name"] = "partitioning.partition"
    return partition


def staged_distgnn_cell(
    tracer, graph, name: str, k: int, grid: Sequence[TrainingParams], seed: int
) -> List[float]:
    """One DistGNN cell, staged; returns each record's epoch seconds."""
    epoch_seconds = []
    with tracer.span("cell", cell=f"distgnn/{graph.name}/{name}/k{k}"):
        for params in grid:
            partition = _cached_partition(tracer, "edge", graph, name, k, seed)
            with tracer.span("partitioning.metrics.edge_quality"):
                edge_partition_quality(partition)
            with tracer.span("distgnn.engine_init"):
                engine = DistGnnEngine(
                    partition,
                    feature_size=params.feature_size,
                    hidden_dim=params.hidden_dim,
                    num_layers=params.num_layers,
                    num_classes=params.num_classes,
                )
            with tracer.span("distgnn.simulate") as span:
                epochs = engine.simulate_training(1)
                span["epochs"] = len(epochs)
            epoch_seconds.append(
                sum(e.epoch_seconds for e in epochs) / len(epochs)
            )
    return epoch_seconds


def staged_distdgl_cell(
    tracer, graph, split, name: str, k: int,
    grid: Sequence[TrainingParams], seed: int,
) -> List[float]:
    """One DistDGL cell, staged; returns each record's epoch seconds."""
    epoch_seconds = []
    with tracer.span("cell", cell=f"distdgl/{graph.name}/{name}/k{k}"):
        for params in grid:
            partition = _cached_partition(tracer, "vertex", graph, name, k, seed)
            with tracer.span("partitioning.metrics.vertex_quality"):
                vertex_partition_quality(partition, split.train)
            with tracer.span("distdgl.engine_init"):
                engine = DistDglEngine(
                    partition,
                    split,
                    arch=params.arch,
                    feature_size=params.feature_size,
                    hidden_dim=params.hidden_dim,
                    num_layers=params.num_layers,
                    num_classes=params.num_classes,
                    global_batch_size=params.global_batch_size,
                    seed=seed,
                )
            with tracer.span("distdgl.run_training") as span:
                reports = engine.run_training(1)
                span["steps"] = sum(len(r.steps) for r in reports)
            epoch_seconds.append(
                sum(r.epoch_seconds for r in reports) / len(reports)
            )
    return epoch_seconds


#: Spans whose time the runners also spend; a round's untraced wall
#: minus their sum is the runners' own residual (record assembly,
#: fingerprinting, loop overhead).
STAGE_SPANS = (
    "partitioning.partition",
    "experiments.cache.hit_lookup",
    "partitioning.metrics.edge_quality",
    "partitioning.metrics.vertex_quality",
    "distgnn.engine_init",
    "distgnn.simulate",
    "distdgl.engine_init",
    "distdgl.run_training",
)


class SweepWorkload(Workload):
    """Shared shape of the three sweep workloads: per round, a DistGNN
    grid and a DistDGL grid over each of a few freshly generated
    ``OR``-like graphs (several, so that one instance's luck with the
    randomised kernels does not set the round's time), delivered as
    records."""

    #: Key into the size table: graphs per round.
    graphs_key = ""
    #: False where the cells run in other processes and cannot be staged.
    staged_trace = True

    def _plan(self, ctx: Context):
        """``(gnn_names, gnn_ks, dgl_names, dgl_ks, grid)`` per graph."""
        raise NotImplementedError

    def _generate(self, ctx: Context, r: int) -> None:
        """Round ``r``'s graphs, freshly generated (lazy CSR and
        fingerprint caches cold) with their train splits and seeds."""
        self.graphs = []
        for index in range(ctx.sizes[self.graphs_key]):
            seed = ctx.round_seed(r) * 10 + index
            with ctx.tracer.span("graph.generate"):
                graph = powerlaw_cluster_graph(
                    **ctx.sizes["graph"], seed=seed, name="OR"
                )
            self.graphs.append((graph, random_split(graph, seed=seed), seed))
        self.graphs_used = False

    def setup(self, ctx: Context) -> None:
        self._generate(ctx, 0)

    def _cells(self, ctx: Context) -> List[Tuple[int, str, int, str]]:
        """``(graph index, engine, k, partitioner)`` per cell, in record
        order."""
        gnn_names, gnn_ks, dgl_names, dgl_ks, _ = self._plan(ctx)
        return [
            cell
            for index in range(len(self.graphs))
            for cell in (
                [(index, "distgnn", k, n) for k in gnn_ks for n in gnn_names]
                + [(index, "distdgl", k, n) for k in dgl_ks for n in dgl_names]
            )
        ]

    def _run_grids(self, ctx: Context, tracer, graph, split, seed: int) -> List:
        """One graph through the runners' grid functions, as a sweep
        script calls them."""
        gnn_names, gnn_ks, dgl_names, dgl_ks, grid = self._plan(ctx)
        with tracer.span("experiments.run_distgnn_grid"):
            records = run_distgnn_grid(graph, gnn_names, gnn_ks, grid, seed=seed)
        with tracer.span("experiments.run_distdgl_grid"):
            records += run_distdgl_grid(
                graph, dgl_names, dgl_ks, grid, split=split, seed=seed
            )
        return records

    def _run_cell(self, ctx: Context, tracer, cell, staged: bool) -> List:
        """One cell: staged (its records' epoch seconds) or through the
        serial runner (its records)."""
        index, engine, k, name = cell
        graph, split, seed = self.graphs[index]
        grid = self._plan(ctx)[4]
        if engine == "distgnn":
            if staged:
                return staged_distgnn_cell(tracer, graph, name, k, grid, seed)
            return run_distgnn_grid(graph, [name], [k], grid, seed=seed)
        if staged:
            return staged_distdgl_cell(tracer, graph, split, name, k, grid, seed)
        return run_distdgl_grid(graph, [name], [k], grid, split=split, seed=seed)

    def round(self, ctx: Context, r: int, tracer) -> Tuple[int, object]:
        self.graphs_used = True
        payload: List = []
        if tracer.enabled and self.staged_trace:
            for cell in self._cells(ctx):
                payload += self._run_cell(ctx, tracer, cell, staged=True)
        else:
            for graph, split, seed in self.graphs:
                payload += self._run_grids(ctx, tracer, graph, split, seed)
        return len(payload), payload

    def after_round(self, ctx: Context, r: int, payload: object, tracer) -> None:
        cells = self._cells(ctx)
        ctx.ops.ok(len(cells))
        if tracer.enabled and self.staged_trace:
            # The staged replay must have driven the same computation
            # as the runners did in the untraced round before it.
            want = [e["data"]["epoch_seconds"] for e in self.exported]
            ctx.ops.check(
                payload == want,
                f"{self.name}: staged replay's epoch seconds differ from "
                "the runners' records",
            )
            return
        self.exported = checks.export_form(payload)
        per_graph = len(self.exported) // len(self.graphs)
        ctx.ops.check(
            len(self.exported) == len(cells) * len(self._plan(ctx)[4]),
            f"{self.name}: {len(self.exported)} records for {len(cells)} cells",
        )
        checks.check_records_finite(ctx.ops, self.exported)
        for index in range(len(self.graphs)):
            checks.check_paper_orderings(
                ctx.ops, self.exported[index * per_graph : (index + 1) * per_graph]
            )
        self._validate_partitions(ctx, cells)

    def _validate_partitions(self, ctx: Context, cells) -> None:
        """The cells' partitions, fetched back from the partition cache."""
        for index, engine, k, name in cells:
            graph, _, seed = self.graphs[index]
            if engine == "distgnn":
                partition, _ = cached_edge_partition(graph, name, k, seed)
                checks.check_partition(ctx.ops, partition, "edge")
            else:
                partition, _ = cached_vertex_partition(graph, name, k, seed)
                checks.check_partition(ctx.ops, partition, "vertex")

    def layer_metrics(
        self, ctx: Context, tracer: Tracer, untraced_wall: float
    ) -> Dict[str, float]:
        total, count = tracer.total, tracer.count
        out = {
            "graph.generate_s": total("graph.generate"),
            "graph.generate_calls": count("graph.generate"),
        }
        if not self.staged_trace:
            return out
        out.update({
            "partitioning.partition_s": total("partitioning.partition"),
            "partitioning.partition_calls": count("partitioning.partition"),
            "partitioning.metrics.edge_quality_s": total(
                "partitioning.metrics.edge_quality"
            ),
            "partitioning.metrics.vertex_quality_s": total(
                "partitioning.metrics.vertex_quality"
            ),
            "distgnn.engine_init_s": total("distgnn.engine_init"),
            "distgnn.simulate_s": total("distgnn.simulate"),
            "distgnn.epochs": tracer.attr_sum("distgnn.simulate", "epochs"),
            "distdgl.engine_init_s": total("distdgl.engine_init"),
            "distdgl.run_training_s": total("distdgl.run_training"),
            "distdgl.steps": tracer.attr_sum("distdgl.run_training", "steps"),
            "experiments.cache.hit_lookup_s": total("experiments.cache.hit_lookup"),
            "experiments.runner.residual_s": untraced_wall - sum(
                total(name) for name in STAGE_SPANS
            ),
        })
        for family, names in (
            ("edge", EDGE_PARTITIONER_NAMES),
            ("vertex", VERTEX_PARTITIONER_NAMES),
        ):
            for name in names:
                out[f"partitioning.{family}.{name}.partition_s"] = total(
                    "partitioning.partition", family=family, algo=name
                )
        return out


class SweepCold(SweepWorkload):
    """All 12 partitioners x k, one default TrainingParams, cache empty."""

    name = "sweep_cold"
    graphs_key = "cold_graphs"

    def _plan(self, ctx: Context):
        ks = ctx.sizes["cold_machines"]
        return (
            EDGE_PARTITIONER_NAMES, ks, VERTEX_PARTITIONER_NAMES, ks,
            [TrainingParams()],
        )

    def prepare(self, ctx: Context, r: int) -> None:
        if self.graphs_used:
            self._generate(ctx, r)
        clear_cache()
        if cache_size() != 0:
            raise RuntimeError("partition cache not empty before a cold round")


def _noop_cell(index: int) -> int:
    """Module-level no-op task for the executor round-trip probe."""
    return index


class SweepFanout(SweepCold):
    """The ``sweep_cold`` grid through the process-parallel runners."""

    name = "sweep_fanout"
    staged_trace = False
    #: Set by the traced pass, which compares every cell in ``probes``.
    compared_all = False

    def _run_grids(self, ctx: Context, tracer, graph, split, seed: int) -> List:
        gnn_names, gnn_ks, dgl_names, dgl_ks, grid = self._plan(ctx)
        workers = ctx.sizes["workers"]
        with tracer.span("experiments.run_distgnn_grid_parallel"):
            records = run_distgnn_grid_parallel(
                graph, gnn_names, gnn_ks, grid, seed=seed, workers=workers
            )
        with tracer.span("experiments.run_distdgl_grid_parallel"):
            records += run_distdgl_grid_parallel(
                graph, dgl_names, dgl_ks, grid,
                split=split, seed=seed, workers=workers,
            )
        if cache_size() != 0:
            raise RuntimeError("a parallel round filled the parent's cache")
        return records

    def _validate_partitions(self, ctx: Context, cells) -> None:
        """The partitions live in the pool workers; ``check`` recomputes
        a sample of them serially instead."""

    def check(self, ctx: Context) -> None:
        """A seeded sample of the last round's cells equals a serial run."""
        if self.compared_all:
            return
        cells = self._cells(ctx)
        per_cell = len(self._plan(ctx)[4])
        picks = sorted(random.Random(ctx.seed).sample(
            range(len(cells)), ctx.sizes["fanout_check_cells"]
        ))
        for position in picks:
            serial = self._run_cell(ctx, NullTracer(), cells[position], staged=False)
            checks.check_records_equal(
                ctx.ops, f"sweep_fanout cell {cells[position]}",
                self.exported[position * per_cell : (position + 1) * per_cell],
                checks.export_form(serial),
            )
        SweepCold._validate_partitions(self, ctx, [cells[i] for i in picks])

    def probes(self, ctx: Context, tracer: Tracer) -> None:
        """The serial run of the same grid (fan-out efficiency, full
        record equality), then what a cell costs to ship."""
        serial: List = []
        with tracer.span("probe.serial_sweep"):
            for graph, split, seed in self.graphs:
                serial += SweepCold._run_grids(
                    self, ctx, NullTracer(), graph, split, seed
                )
        checks.check_records_equal(
            ctx.ops, "sweep_fanout", self.exported, checks.export_form(serial)
        )
        self.compared_all = True
        SweepCold._validate_partitions(self, ctx, self._cells(ctx))
        clear_cache()
        with tracer.span("probe.export.to_json"):
            self.json_bytes = len(records_to_json(serial))
        with tracer.span("probe.pickle.records"):
            pickle.loads(pickle.dumps(serial))
        graph, _, seed = self.graphs[0]
        # The argument tuple the parallel runner builds for one DistGNN
        # cell, graph included: what every task submission pickles.
        args = (
            graph, "hdrf", 8, self._plan(ctx)[4], seed, DEFAULT_COST_MODEL,
            None, None, 1, "off", 0, None, None, None, None,
        )
        with tracer.span("probe.pickle.task_args"):
            blob = pickle.dumps(args)
            pickle.loads(blob)
        self.task_args_bytes = len(blob)
        tasks = [
            CellTask(index=i, fn=_noop_cell, args=(i,))
            for i in range(ctx.sizes["noop_cells"])
        ]
        with tracer.span("probe.executor.noop_cells"):
            results = execute_cells(tasks, workers=ctx.sizes["workers"])
        ctx.ops.check(
            results == list(range(len(tasks))), "no-op cells came back wrong"
        )

    def layer_metrics(
        self, ctx: Context, tracer: Tracer, untraced_wall: float
    ) -> Dict[str, float]:
        total = tracer.total
        out = super().layer_metrics(ctx, tracer, untraced_wall)
        parallel_wall = total("experiments.run_distgnn_grid_parallel") + total(
            "experiments.run_distdgl_grid_parallel"
        )
        out.update({
            "experiments.export.to_json_s": total("probe.export.to_json"),
            "experiments.export.json_bytes": self.json_bytes,
            "experiments.pickle.records_s": total("probe.pickle.records"),
            "experiments.pickle.task_args_s": total("probe.pickle.task_args"),
            "experiments.pickle.task_args_bytes": self.task_args_bytes,
            "experiments.executor.noop_cell_s": total(
                "probe.executor.noop_cells"
            ) / ctx.sizes["noop_cells"],
            "experiments.parallel.fanout_efficiency": total(
                "probe.serial_sweep"
            ) / (ctx.sizes["workers"] * parallel_wall),
        })
        return out


class SweepWarm(SweepWorkload):
    """The hyper-parameter sweep: every partition pre-computed in set-up,
    the reduced Table-3 grid through both engines."""

    name = "sweep_warm"
    graphs_key = "warm_graphs"

    def _plan(self, ctx: Context):
        return (
            EDGE_PARTITIONER_NAMES, ctx.sizes["warm_gnn_machines"],
            ctx.sizes["warm_dgl_partitioners"], ctx.sizes["warm_dgl_machines"],
            list(reduced_grid()),
        )

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        # One pass with a single configuration fills the partition cache
        # and every lazy per-partition statistic.
        gnn_names, gnn_ks, dgl_names, dgl_ks, grid = self._plan(ctx)
        with ctx.tracer.span("setup.partition_warmup"):
            for graph, split, seed in self.graphs:
                run_distgnn_grid(graph, gnn_names, gnn_ks, grid[:1], seed=seed)
                run_distdgl_grid(
                    graph, dgl_names, dgl_ks, grid[:1], split=split, seed=seed
                )
        self.warm_cache_size = cache_size()

    def prepare(self, ctx: Context, r: int) -> None:
        if cache_size() != self.warm_cache_size:
            raise RuntimeError("partition cache changed during a warm sweep")

    def probes(self, ctx: Context, tracer: Tracer) -> None:
        """Neighbourhood sampling replayed alone, and the DistGNN slice
        re-run with metrics-level observability on."""
        graph, split, seed = self.graphs[0]
        rng = np.random.default_rng(seed)
        defaults = TrainingParams()
        fanouts = default_fanouts(defaults.num_layers)
        for _ in range(ctx.sizes["sampling_batches"]):
            seeds = rng.choice(
                split.train, size=defaults.global_batch_size, replace=False
            )
            with tracer.span("gnn.sampling.sample_blocks"):
                sample_blocks(graph, seeds, fanouts, rng)
        gnn_names, gnn_ks, _, _, grid = self._plan(ctx)
        for level in ("off", "metrics"):
            obs.configure(level)
            try:
                with tracer.span("probe.obs." + level):
                    run_distgnn_grid(graph, gnn_names, gnn_ks, grid, seed=seed)
            finally:
                obs.configure("off")

    def layer_metrics(
        self, ctx: Context, tracer: Tracer, untraced_wall: float
    ) -> Dict[str, float]:
        out = super().layer_metrics(ctx, tracer, untraced_wall)
        off = tracer.total("probe.obs.off")
        out.update({
            "gnn.sampling.sample_blocks_s": tracer.total(
                "gnn.sampling.sample_blocks"
            ),
            "gnn.sampling.sample_blocks_calls": tracer.count(
                "gnn.sampling.sample_blocks"
            ),
            "obs.metrics_level_overhead_share": (
                tracer.total("probe.obs.metrics") - off
            ) / off,
        })
        return out


# ----------------------------------------------------------------------
# served_jobs
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _prometheus_sum(text: str, metric: str, suffix: str = "") -> float:
    """Sum over label sets of one exposition sample (``_sum``/``_count``
    of a histogram, or a counter when ``suffix`` is empty)."""
    sample = prometheus_name(metric) + suffix
    total = 0.0
    for line in text.splitlines():
        head = line.split("{", 1)[0].split(" ", 1)[0]
        if head == sample:
            total += float(line.rsplit(" ", 1)[1])
    return total


class ServedJobs(Workload):
    """Closed loop of tenants against a live ``repro serve`` daemon."""

    name = "served_jobs"

    def __init__(self) -> None:
        super().__init__()
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServeClient] = None
        self.daemons = 0
        self.last_round = -1
        #: (spec, fetched records) of every verified job of the run.
        self.delivered: List[Tuple[Dict[str, object], List]] = []
        self.latencies: List[float] = []
        self.scraped: Dict[str, float] = {}

    def _start_daemon(self, ctx: Context) -> None:
        self.daemons += 1
        data_dir = os.path.join(ctx.out_dir, f"serve-{self.daemons}")
        port = _free_port()
        with ctx.tracer.span("serve.daemon_start"):
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(port),
                    "--workers", str(ctx.sizes["workers"]),
                    "--obs-level", "metrics",
                    "--data-dir", data_dir,
                ],
                stdout=subprocess.DEVNULL,
            )
            self.client = ServeClient(f"http://127.0.0.1:{port}")
            deadline = time.monotonic() + 60.0
            while True:
                try:
                    self.client.healthz()
                    break
                except (OSError, ServeError):
                    if (
                        self.proc.poll() is not None
                        or time.monotonic() > deadline
                    ):
                        raise RuntimeError("repro serve did not come up")
                    time.sleep(0.01)
        self.histories: List[List[Dict[str, object]]] = [
            [] for _ in range(ctx.sizes["clients"])
        ]

    def _stop_daemon(self) -> None:
        if self.proc is None:
            return
        try:
            self.client.shutdown()
            self.proc.wait(timeout=30.0)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc = None

    def setup(self, ctx: Context) -> None:
        self.lanes = ctx.sizes["clients"]
        self._start_daemon(ctx)

    def prepare(self, ctx: Context, r: int) -> None:
        if r == self.last_round:
            # The traced round replays the untraced round's inputs; a
            # fresh daemon keeps the first one's dedup cache out of it.
            self._stop_daemon()
            self._start_daemon(ctx)
        self.last_round = r

    def _round_plan(
        self, ctx: Context, rng: random.Random, tenant: int
    ) -> List[Dict[str, object]]:
        """One tenant's job specs for a round, in submission order.

        The fresh jobs are a fixed multiset — every partitioner pair of
        both engines on every job graph — so a round's work does not
        depend on the seed's luck; the seed sets their order, their
        graph seeds and which earlier specs are resubmitted where.
        """
        fresh = [
            (engine, pair, graph)
            for graph in ctx.sizes["job_graphs"]
            for engine, pairs in JOB_PAIRS.items()
            for pair in pairs
        ]
        rng.shuffle(fresh)
        slots: List[Optional[tuple]] = list(fresh)
        for _ in range(ctx.sizes["resubmits_per_round"]):
            slots.insert(rng.randrange(1, len(slots) + 1), None)
        history = self.histories[tenant]
        plan = []
        for slot in slots:
            if slot is None:
                plan.append(rng.choice(history[-RESUBMIT_WINDOW:]))
                continue
            engine, pair, graph = slot
            spec = {
                "engine": engine,
                "graph": graph,
                "partitioners": list(pair),
                "machines": [4, 8],
                "params": [{"feature_size": 16}, {"feature_size": 64}],
                "scale": "tiny",
                "seed": rng.randrange(2**31),
                "tenant": f"tenant-{tenant}",
            }
            history.append(spec)
            plan.append(spec)
        return plan

    def _call(self, ctx: Context, tracer, name: str, fn, *args, **kwargs):
        """One HTTP call: a span and a counted op; None when it failed."""
        try:
            with tracer.span(name):
                reply = fn(*args, **kwargs)
            ctx.ops.ok()
            return reply
        except (OSError, ServeError) as exc:
            ctx.ops.fail(f"{name}: {exc}")
            return None

    def _run_job(self, ctx: Context, tracer, spec) -> Optional[List]:
        """submit -> poll every 2 ms -> fetch records; None on failure."""
        client = self.client
        job = self._call(ctx, tracer, "serve.http.submit", client.submit, spec)
        if job is None:
            return None
        while True:
            job = self._call(
                ctx, tracer, "serve.http.poll", client.job, job["id"]
            )
            if job is None:
                return None
            if job["state"] in TERMINAL_STATES:
                break
            time.sleep(POLL_INTERVAL_S)
        if job["state"] != "done":
            ctx.ops.fail(f"job {job['id']} ended {job['state']}: {job['error']}")
            return None
        reply = self._call(
            ctx, tracer, "serve.http.records_fetch",
            client.job, job["id"], records=True,
        )
        return None if reply is None else reply["records"]

    def _tenant_loop(self, ctx: Context, r: int, tenant: int, tracer, out) -> None:
        rng = random.Random(ctx.round_seed(r) * 101 + tenant)
        for spec in self._round_plan(ctx, rng, tenant):
            started = time.perf_counter()
            with tracer.span("serve.job", tenant=tenant):
                records = self._run_job(ctx, tracer, spec)
            if records is not None:
                out.append((spec, records, time.perf_counter() - started))

    def round(self, ctx: Context, r: int, tracer) -> Tuple[int, object]:
        outs: List[List] = [[] for _ in range(self.lanes)]
        threads = [
            threading.Thread(
                target=self._tenant_loop, args=(ctx, r, t, tracer, outs[t])
            )
            for t in range(self.lanes)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        jobs = [job for out in outs for job in out]
        return sum(len(records) for _, records, _ in jobs), jobs

    def after_round(self, ctx: Context, r: int, payload: object, tracer) -> None:
        self.exported = []
        self.latencies = []
        for spec, records, latency in payload:
            expected = (
                len(spec["partitioners"]) * len(spec["machines"])
                * len(spec["params"])
            )
            if ctx.ops.check(
                len(records) == expected,
                f"job returned {len(records)} records, expected {expected}",
            ):
                self.latencies.append(latency)
                self.delivered.append((spec, records))
                self.exported += records
        checks.check_records_finite(ctx.ops, self.exported)
        if tracer.enabled:
            self._scrape(ctx, tracer)

    def _scrape(self, ctx: Context, tracer: Tracer) -> None:
        """The daemon's own accounting, read over HTTP before it exits."""
        text = ""
        for _ in range(ctx.sizes["metrics_scrapes"]):
            text = self._call(
                ctx, tracer, "serve.metrics_scrape", self.client.metrics
            ) or text
        queue = self._call(ctx, tracer, "serve.http.queue", self.client.queue)
        if not text or queue is None:
            return

        def mean(metric: str) -> float:
            count = _prometheus_sum(text, metric, "_count")
            return _prometheus_sum(text, metric, "_sum") / count if count else 0.0

        hits = queue["dedup_hits_total"]
        computed = queue["cells_computed_total"]
        self.scraped = {
            "serve.cell_wait_mean_s": mean("serve.cell_wait_seconds"),
            "serve.cell_service_mean_s": mean("serve.cell_service_seconds"),
            "serve.first_record_mean_s": mean(
                "serve.admission_to_first_record_seconds"
            ),
            "serve.cells_computed": computed,
            "serve.dedup_hits": hits,
            "serve.dedup_hit_ratio": hits / (hits + computed),
            "serve.http_requests": _prometheus_sum(text, "serve.http_requests"),
            "serve.admission_rejected": _prometheus_sum(
                text, "serve.admission_rejected"
            ),
        }

    def teardown(self, ctx: Context) -> None:
        self._stop_daemon()
        shutil.rmtree(ctx.out_dir, ignore_errors=True)

    def check(self, ctx: Context) -> None:
        """A seeded sample of served jobs equals an in-process serial run."""
        count = min(ctx.sizes["served_check_jobs"], len(self.delivered))
        for spec, records in random.Random(ctx.seed).sample(
            self.delivered, count
        ):
            with ctx.tracer.span("graph.generate", graph=spec["graph"]):
                graph = load_dataset(spec["graph"], spec["scale"], spec["seed"])
            grid = [TrainingParams(**p) for p in spec["params"]]
            if spec["engine"] == "distgnn":
                serial = run_distgnn_grid(
                    graph, spec["partitioners"], spec["machines"], grid,
                    seed=spec["seed"],
                )
                family, fetch = "edge", cached_edge_partition
            else:
                serial = run_distdgl_grid(
                    graph, spec["partitioners"], spec["machines"], grid,
                    seed=spec["seed"],
                )
                family, fetch = "vertex", cached_vertex_partition
            checks.check_records_equal(
                ctx.ops, f"served {spec['engine']} job on {spec['graph']}",
                records, checks.export_form(serial),
            )
            for k in spec["machines"]:
                for name in spec["partitioners"]:
                    partition, _ = fetch(graph, name, k, spec["seed"])
                    checks.check_partition(ctx.ops, partition, family)

    def layer_metrics(
        self, ctx: Context, tracer: Tracer, untraced_wall: float
    ) -> Dict[str, float]:
        def p50(name: str) -> float:
            return statistics.median(tracer.durations(name))

        out = {
            "graph.generate_s": tracer.total("graph.generate"),
            "graph.generate_calls": tracer.count("graph.generate"),
            "serve.daemon_start_s": statistics.median(
                tracer.durations("serve.daemon_start")
            ),
            "serve.http.submit_p50_s": p50("serve.http.submit"),
            "serve.http.poll_p50_s": p50("serve.http.poll"),
            "serve.http.records_fetch_p50_s": p50("serve.http.records_fetch"),
            "serve.metrics_scrape_p50_s": p50("serve.metrics_scrape"),
            "serve.records_bytes": len(json.dumps(self.exported, indent=2)),
            "serve.job_latency_p50_s": statistics.median(self.latencies),
            "serve.job_latency_p90_s": statistics.quantiles(
                self.latencies, n=10
            )[8],
        }
        out.update(self.scraped)
        return out


# ----------------------------------------------------------------------
# stream_outofcore
# ----------------------------------------------------------------------
def _tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


class StreamOutOfCore(Workload):
    """generate -> spool -> shuffle x3 -> LDG over an on-disk chunk store."""

    name = "stream_outofcore"
    shufflers = ("hdrf", "dbh", "2ps-l")

    def setup(self, ctx: Context) -> None:
        os.makedirs(ctx.out_dir, exist_ok=True)

    def _edge_blocks(self, ctx: Context, r: int):
        return rmat_edge_chunks(
            ctx.sizes["stream_scale"], ctx.sizes["stream_edges"],
            seed=ctx.round_seed(r),
        )

    def prepare(self, ctx: Context, r: int) -> None:
        self.round_dir = os.path.join(ctx.out_dir, f"round-{r}")
        shutil.rmtree(self.round_dir, ignore_errors=True)
        os.makedirs(self.round_dir)

    def round(self, ctx: Context, r: int, tracer) -> Tuple[int, object]:
        k, seed = ctx.sizes["stream_k"], ctx.round_seed(r)
        with tracer.span("graph.chunkstore.spool"):
            self.reader = spool_edges(
                self._edge_blocks(ctx, r),
                os.path.join(self.round_dir, "spool"),
                chunk_size=ctx.sizes["stream_chunk"],
                num_vertices=1 << ctx.sizes["stream_scale"],
                directed=True,
            )
        bucket_counts = {}
        for name in self.shufflers:
            with tracer.span("partitioning.shuffle_stream", algo=name):
                result = shuffle_stream(
                    self.reader, make_edge_partitioner(name), k,
                    os.path.join(self.round_dir, "shuffle-" + name), seed=seed,
                )
            bucket_counts[name] = result.edge_counts
        with tracer.span("partitioning.partition_stream", algo="ldg"):
            ldg = LdgPartitioner().partition_stream(self.reader, k, seed=seed)
        passes = len(self.shufflers) + 1
        return self.reader.num_edges * passes, (bucket_counts, ldg)

    def after_round(self, ctx: Context, r: int, payload: object, tracer) -> None:
        bucket_counts, ldg = payload
        edges = ctx.sizes["stream_edges"]
        ctx.ops.check(
            self.reader.num_edges == edges,
            f"spooled {self.reader.num_edges} edges, expected {edges}",
        )
        for name, counts in bucket_counts.items():
            ctx.ops.check(
                int(counts.sum()) == edges and len(counts) == ctx.sizes["stream_k"],
                f"{name} buckets hold {int(counts.sum())} edges, not {edges}",
            )
        ctx.ops.check(
            int(ldg.vertex_counts().sum()) == self.reader.num_vertices,
            "LDG did not assign every vertex",
        )
        self.bucket_bytes = sum(
            _tree_bytes(os.path.join(self.round_dir, "shuffle-" + name))
            for name in self.shufflers
        )

    def probes(self, ctx: Context, tracer: Tracer) -> None:
        """Each stage drained alone, over the traced round's spool."""
        with tracer.span("graph.rmat_generate"):
            for _ in self._edge_blocks(ctx, 0):
                pass
        with tracer.span("graph.chunkstore.read"):
            for _ in self.reader.iter_chunks():
                pass
        for name in self.shufflers:
            with tracer.span("partitioning.stream.assign", algo=name):
                for _ in make_edge_partitioner(name).stream_assignments(
                    self.reader, ctx.sizes["stream_k"], seed=ctx.round_seed(0)
                ):
                    pass

    def teardown(self, ctx: Context) -> None:
        shutil.rmtree(ctx.out_dir, ignore_errors=True)

    def layer_metrics(
        self, ctx: Context, tracer: Tracer, untraced_wall: float
    ) -> Dict[str, float]:
        assign = {
            name: tracer.total("partitioning.stream.assign", algo=name)
            for name in self.shufflers
        }
        # LDG's stream pass has no shuffle around it: its span is its
        # assignment time.
        assign["ldg"] = tracer.total("partitioning.partition_stream")
        out = {
            "graph.rmat_generate_s": tracer.total("graph.rmat_generate"),
            "graph.chunkstore.spool_s": tracer.total("graph.chunkstore.spool"),
            "graph.chunkstore.spool_edges": self.reader.num_edges,
            "graph.chunkstore.read_s": tracer.total("graph.chunkstore.read"),
            "partitioning.shuffle_s": tracer.total(
                "partitioning.shuffle_stream"
            ) - sum(assign[name] for name in self.shufflers),
            "partitioning.shuffle.bucket_bytes": self.bucket_bytes,
        }
        for name, seconds in assign.items():
            out[f"partitioning.stream.{name}.assign_s"] = seconds
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (SweepCold, SweepWarm, SweepFanout, ServedJobs, StreamOutOfCore)
}
