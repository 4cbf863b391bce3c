"""Command-line interface to the reproduction library.

Subcommands::

    python -m repro datasets                         # list the stand-ins
    python -m repro spool      --rmat-scale 18 --rmat-edges 10000000 --out DIR
    python -m repro partition  --graph OR --cut edge-cut --algorithm metis -k 8
    python -m repro partition  --store DIR --cut vertex-cut --algorithm hdrf \
        -k 32 --shuffle-out BUCKETS                  # out-of-core
    python -m repro distgnn    --graph OR --partitioner hep100 -k 8
    python -m repro distdgl    --graph OR --partitioner metis -k 8
    python -m repro sweep      --quick --graphs OR --machines 4,8 --out DIR
    python -m repro amortize   --graph OR -k 16 --epochs 100
    python -m repro obs analyze   RUN_ARTIFACT... -o out.md -o out.html
    python -m repro obs diff      A B               # regression diff
    python -m repro obs watch     BUS_DIR           # live sweep monitor
    python -m repro obs top       http://host:8642  # live daemon ops monitor
    python -m repro obs profile -o p.json -- distgnn --graph DI ...
    python -m repro obs flamegraph p.json -o flame.html
    python -m repro obs profile-diff base.json new.json
    python -m repro obs trend --bench BENCH_partitioning.json

All numbers are simulated cluster seconds under the default cost model;
see ``repro.costmodel`` for calibration details.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time
from dataclasses import fields
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from . import obs
from .comm import CODEC_NAMES
from .experiments import (
    ENGINES,
    MACHINE_COUNTS,
    CellIO,
    CommConfig,
    FaultConfig,
    TrainingParams,
    comm_grid,
    epochs_to_amortize,
    format_table,
    parameter_grid,
    reduced_grid,
    run_distgnn,
    run_grid,
    save_records,
)
from .graph import (
    DATASET_KEYS,
    DATASET_SCALES,
    EdgeChunkReader,
    dataset_specs,
    graph_stats,
    load_dataset,
    random_split,
    read_edge_list,
    rmat_edge_chunks,
    spool_edges,
    spool_graph,
)
from .graph.chunkstore import DEFAULT_STORE_CHUNK
from .obs.profiling.diff import DEFAULT_MIN_SECONDS, DEFAULT_THRESHOLD
from .partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    EdgePartitioner,
    edge_partition_quality,
    make_edge_partitioner,
    make_vertex_partitioner,
    shuffle_stream,
    vertex_partition_quality,
)

__all__ = ["main"]


def _load_graph(args):
    if args.edge_list:
        return read_edge_list(args.edge_list, directed=args.directed)
    return load_dataset(args.graph, scale=args.scale, seed=args.seed)


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--graph", default="OR", choices=DATASET_KEYS,
        help="built-in dataset key (default: OR)",
    )
    parser.add_argument(
        "--edge-list", default=None,
        help="path to a whitespace edge list (overrides --graph)",
    )
    parser.add_argument(
        "--directed", action="store_true",
        help="treat --edge-list input as directed",
    )
    parser.add_argument(
        "--scale", default="small", choices=DATASET_SCALES,
        help="built-in dataset scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0)


class _Flag(NamedTuple):
    """A flag that sets one config field, which gives it its type and
    default."""

    option: str
    field: str
    help: Optional[str] = None
    choices: Optional[Tuple[str, ...]] = None


#: ``(config class, flags)`` tables; a new config field costs one row.
_MODEL = (TrainingParams, (
    _Flag("--feature-size", "feature_size"),
    _Flag("--hidden-dim", "hidden_dim"),
    _Flag("--num-layers", "num_layers"),
))
#: DistDGL's own model flags.
_DISTDGL_MODEL = (TrainingParams, (
    _Flag("--arch", "arch", choices=("sage", "gcn", "gat")),
    _Flag("--batch-size", "global_batch_size"),
))
_FAULT = (FaultConfig, (
    _Flag("--fault-rate", "crash_rate",
          "per-(epoch, machine) crash probability"),
    _Flag("--slowdown-rate", "slowdown_rate",
          "per-(epoch, machine) transient-straggler probability"),
    _Flag("--loss-rate", "loss_rate",
          "per-(epoch, machine) lost-message probability"),
    _Flag("--checkpoint-every", "checkpoint_every",
          "full-batch checkpoint interval in epochs"),
    _Flag("--fault-seed", "seed", "seed of the deterministic fault plan"),
))
#: In field order, which is ``comm_grid``'s argument order.
_COMM = (CommConfig, (
    _Flag("--compression", "compression",
          "codec for feature fetches / halo and gradient exchanges",
          choices=CODEC_NAMES),
    _Flag("--refresh-interval", "refresh_interval",
          "DistGNN cd-r delayed aggregation: sync halos every r-th "
          "epoch (1 = every epoch; ignored by distdgl)"),
    _Flag("--cache-fraction", "cache_fraction",
          "DistDGL static feature cache: pin this fraction of the "
          "hottest vertices per worker (ignored by distgnn)"),
))
_OBS = (CellIO, (
    _Flag("--obs-level", "obs_level",
          "telemetry level (default: %(default)s)",
          choices=obs.LEVELS),
))


def _flags(table):
    """``(flag, args attribute, CLI default)`` for each flag of ``table``."""
    config, flags = table
    defaults = {f.name: f.default for f in fields(config)}
    for flag in flags:
        yield flag, flag.option[2:].replace("-", "_"), defaults[flag.field]


def _add_config_arguments(parser, table, listed=False) -> None:
    """Add ``table``'s flags to ``parser`` or an argument group; a
    ``listed`` flag takes a comma list of values (see :func:`_listed`)."""
    for flag, _, default in _flags(table):
        if listed:
            among = f" of {', '.join(flag.choices)}" if flag.choices else ""
            parser.add_argument(
                flag.option, help=f"comma list{among} to sweep: {flag.help}",
                default=format(default, "g") if isinstance(default, float)
                else str(default),
            )
        else:
            parser.add_argument(
                flag.option, default=default, choices=flag.choices,
                type=None if isinstance(default, str) else type(default),
                help=flag.help,
            )


def _config(args, *tables):
    """The config the flags of ``tables`` (all of one class) describe;
    ``None`` when it is falsy: a fault or comm config at its defaults."""
    values = {
        flag.field: getattr(args, dest)
        for table in tables for flag, dest, _ in _flags(table)
    }
    config_class = tables[0][0]
    return config_class(**values) or None


def _listed(args, table) -> List[list]:
    """Each listed flag of ``table`` as values of its field's type."""
    return [
        [type(default)(v.strip()) for v in getattr(args, dest).split(",")
         if v.strip()]
        for _, dest, default in _flags(table)
    ]


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The graph, model and cluster-size flags of the engine commands."""
    _add_graph_arguments(parser)
    _add_config_arguments(parser, _MODEL)
    parser.add_argument("-k", "--machines", type=int, default=8)


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "fault injection (simulated failures + recovery)"
    )
    group.add_argument(
        "--epochs", type=int, default=1,
        help="epochs to simulate (fault sweeps need more than one)",
    )
    _add_config_arguments(group, _FAULT)


def _add_comm_arguments(parser, listed=False) -> None:
    group = parser.add_argument_group(
        "communication reduction (see docs/communication.md)"
    )
    _add_config_arguments(group, _COMM, listed=listed)


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "observability (see docs/observability.md)"
    )
    _add_config_arguments(group, _OBS)
    group.add_argument(
        "--obs-out", default=None,
        help="JSONL output path: trace events (at trace level) plus a "
             "final metrics-snapshot record",
    )


def _configure_obs(args) -> None:
    """Apply the --obs-* flags before a command runs."""
    if args.obs_level == "off":
        return
    sink = None
    if args.obs_out and args.obs_level == "trace":
        sink = obs.JsonlSink(args.obs_out)
    obs.configure(args.obs_level, sink)


def _finish_obs(args) -> None:
    """Write the metrics snapshot to --obs-out and reset the obs layer."""
    if args.obs_level == "off":
        return
    if args.obs_out:
        sink = obs.get_sink()
        if sink is None:
            sink = obs.JsonlSink(args.obs_out)
            obs.set_sink(sink)
        sink.emit(
            {
                "kind": "metrics-snapshot",
                "name": "final",
                "metrics": obs.snapshot(),
            }
        )
    obs.reset()
    obs.disable()


def _comm_rows(record) -> List[tuple]:
    rows = [
        ("traffic saved MB / epoch", record.traffic_saved_bytes / 1e6),
        ("codec seconds / epoch", record.codec_seconds),
        ("accuracy proxy error", record.accuracy_proxy_error),
    ]
    if hasattr(record, "staleness_epochs"):
        rows.append(("stale epochs", record.staleness_epochs))
    if hasattr(record, "cache_hit_rate"):
        rows.append(("feature-cache hit rate", record.cache_hit_rate))
    return rows


def _fault_rows(record) -> List[tuple]:
    rows = [
        ("epochs simulated", record.num_epochs),
        ("makespan seconds", record.makespan_seconds),
        ("crashes / slowdowns / lost msgs",
         f"{record.crashes} / {record.slowdowns} / {record.lost_messages}"),
        ("recovery seconds", record.recovery_seconds),
    ]
    if record.engine == "distgnn":
        rows.append(("checkpoint seconds", record.checkpoint_seconds))
        rows.append(("re-executed epochs", record.reexecuted_epochs))
    else:
        rows.append(("retries", record.retries))
        rows.append(("degraded steps", record.degraded_steps))
    return rows


def _cmd_datasets(_args) -> int:
    rows = []
    for key, spec in sorted(dataset_specs().items()):
        graph = load_dataset(key, "tiny")
        stats = graph_stats(graph)
        rows.append(
            (
                key,
                spec.paper_name,
                spec.category,
                "yes" if spec.directed else "no",
                stats.num_vertices,
                stats.num_edges,
                stats.mean_degree,
            )
        )
    print(
        format_table(
            ["key", "paper dataset", "category", "dir",
             "|V| (tiny)", "|E| (tiny)", "mean deg"],
            rows,
            "Built-in dataset stand-ins (see DESIGN.md)",
        )
    )
    return 0


def _cmd_spool(args) -> int:
    """Write an edge stream to an on-disk chunk store."""
    if args.rmat_edges is not None:
        # Chunk-native RMAT: the stream goes straight to disk without
        # ever materialising the full edge array.
        spool_edges(
            rmat_edge_chunks(
                args.rmat_scale,
                args.rmat_edges,
                seed=args.rmat_seed,
                directed=args.rmat_directed,
            ),
            args.out,
            chunk_size=args.chunk_size,
            num_vertices=1 << args.rmat_scale,
            directed=args.rmat_directed,
        )
    else:
        graph = _load_graph(args)
        spool_graph(
            graph,
            args.out,
            chunk_size=args.chunk_size,
            undirected_view=not args.arcs,
        )
    reader = EdgeChunkReader(args.out)
    print(
        f"spooled {reader.num_edges:,} edges over "
        f"{reader.num_vertices:,} vertices to {args.out} "
        f"({len(reader)} chunks of {reader.manifest.chunk_size:,} rows, "
        f"fingerprint {reader.fingerprint[:12]})"
    )
    return 0


def _cmd_partition_store(args) -> int:
    """Out-of-core branch of ``repro partition``: drive a chunk store."""
    from .obs.memory import PeakMemoryTracker

    reader = EdgeChunkReader(args.store)
    if args.cut == "vertex-cut":
        partitioner = make_edge_partitioner(args.algorithm)
    else:
        partitioner = make_vertex_partitioner(args.algorithm)
    if not partitioner.supports_stream:
        print(
            f"{partitioner.name} has no streaming drive path; "
            f"out-of-core algorithms: hdrf, dbh, random, 2ps-l "
            f"(vertex-cut); ldg (edge-cut)"
        )
        return 2
    start = time.perf_counter()
    with PeakMemoryTracker() as tracker:
        if args.shuffle_out:
            if not isinstance(partitioner, EdgePartitioner):
                print("--shuffle-out buckets edges: use --cut vertex-cut")
                return 2
            result = shuffle_stream(
                reader, partitioner, args.machines,
                args.shuffle_out, seed=args.seed,
            )
            counts = result.edge_counts
        else:
            partition = partitioner.partition_stream(
                reader, args.machines, seed=args.seed
            )
            counts = (
                partition.edge_counts()
                if isinstance(partitioner, EdgePartitioner)
                else partition.vertex_counts()
            )
    elapsed = time.perf_counter() - start
    print(
        f"{partitioner.name} ({partitioner.cut_type}) over "
        f"{reader.num_edges:,} spooled edges, k={args.machines}"
    )
    balance = counts.max() / max(counts.mean(), 1e-12)
    print(
        f"bucket sizes: min {counts.min():,} / max {counts.max():,} "
        f"(balance {balance:.3f})"
    )
    print(f"partitioning time: {elapsed:.3f}s")
    print(
        f"peak memory: {tracker.traced_peak_bytes / 2**20:.1f} MiB "
        f"traced, {(tracker.rss_peak_bytes or 0) / 2**20:.1f} MiB RSS"
    )
    if args.shuffle_out:
        print(f"per-partition buckets written to {args.shuffle_out}")
    return 0


def _cmd_partition(args) -> int:
    _configure_obs(args)
    if args.store:
        status = _cmd_partition_store(args)
        _finish_obs(args)
        return status
    graph = _load_graph(args)
    split = random_split(graph, seed=args.seed)
    if args.cut == "vertex-cut":
        partitioner = make_edge_partitioner(args.algorithm)
        partition = partitioner.partition(graph, args.machines, args.seed)
        quality = edge_partition_quality(partition).as_row()
        assignment = partition.assignment
    else:
        partitioner = make_vertex_partitioner(args.algorithm)
        partition = partitioner.partition(graph, args.machines, args.seed)
        quality = vertex_partition_quality(partition, split.train).as_row()
        assignment = partition.assignment
    print(
        f"{partitioner.name} ({partitioner.cut_type}, "
        f"{partitioner.category}) on {graph}"
    )
    print(f"quality: {quality}")
    print(f"partitioning time: {partitioner.last_partitioning_seconds:.3f}s")
    if args.output:
        np.savetxt(args.output, assignment, fmt="%d")
        print(f"assignment written to {args.output}")
    _finish_obs(args)
    return 0


def _distgnn_rows(record) -> List[tuple]:
    return [
        ("network MB / epoch", record.network_bytes / 1e6),
        ("total memory MB", record.total_memory_bytes / 1e6),
        ("memory balance", record.memory_balance),
        ("replication factor", record.replication_factor),
        ("vertex balance", record.vertex_balance),
        ("partitioning seconds", record.partitioning_seconds),
    ]


def _distdgl_rows(record) -> List[tuple]:
    return [
        (f"phase: {phase}", seconds)
        for phase, seconds in record.phase_seconds.items()
    ] + [
        ("remote input vertices", record.remote_input_vertices),
        ("edge-cut ratio", record.edge_cut),
        ("training vertex balance", record.training_vertex_balance),
        ("partitioning seconds", record.partitioning_seconds),
    ]


#: Per engine: the training mode in the report title and its own rows.
_ENGINE_REPORTS = {
    "distgnn": ("full-batch", _distgnn_rows),
    "distdgl": ("mini-batch", _distdgl_rows),
}


def _cmd_engine(args) -> int:
    """``repro distgnn|distdgl``: one configuration against Random."""
    _configure_obs(args)
    engine = ENGINES[args.command]
    mode, engine_rows = _ENGINE_REPORTS[args.command]
    graph = _load_graph(args)
    params = (
        _config(args, _MODEL, _DISTDGL_MODEL) if args.command == "distdgl"
        else _config(args, _MODEL)
    )
    fault_config = _config(args, _FAULT)
    comm_config = _config(args, _COMM)
    record, baseline = (
        engine.run(
            graph, name, args.machines, params, seed=args.seed,
            fault_config=fault_config, num_epochs=args.epochs,
            comm_config=comm_config,
        )
        for name in (args.partitioner, "random")
    )
    rows = [
        ("epoch seconds", record.epoch_seconds),
        ("speedup vs Random", baseline.epoch_seconds / record.epoch_seconds),
    ] + engine_rows(record)
    if fault_config is not None:
        rows += _fault_rows(record)
    if comm_config is not None:
        rows += _comm_rows(record)
    print(
        format_table(
            ["metric", "value"], rows,
            f"{engine.label} {mode}: {args.partitioner} on {graph.name}, "
            f"{args.machines} machines ({params.label()})",
        )
    )
    _finish_obs(args)
    return 0


def _cmd_sweep(args) -> int:
    """Run the paper's full Table 3 sweep and persist the records as JSON.

    The benchmark suite (``pytest benchmarks/``) uses reduced grids so it
    finishes in minutes; this command runs the *complete* cross product —
    27 hyper-parameter configurations x partitioners x machine counts per
    graph and system — and writes ``sweep_distgnn.json`` /
    ``sweep_distdgl.json`` for offline analysis.

    ``--quick`` restricts to the corner-covering reduced grid (the same one
    the benchmarks use). ``--workers N`` fans the (machines, partitioner)
    grid cells out over N processes (0 = one per CPU); results are identical
    to the serial run. A non-zero ``--fault-rate`` / ``--slowdown-rate`` /
    ``--loss-rate`` turns the sweep into a seeded fault sweep: every cell is
    simulated for ``--epochs`` epochs under the same deterministic fault
    plan, the records gain recovery accounting, and a per-partitioner
    recovery-overhead summary is printed at the end.

    ``--compression`` / ``--refresh-interval`` / ``--cache-fraction`` take
    comma lists and turn the sweep into a *communication-reduction* sweep
    (see ``docs/communication.md``): every grid cell is run once per comm
    configuration in the cross product, records carry the
    ``comm_config`` that produced them plus traffic-saved / codec-time /
    staleness accounting, and a per-codec traffic summary is printed at
    the end. At their defaults the sweep is byte-identical to a
    pre-comm run.

    ``--obs-level metrics`` (or ``trace``) collects telemetry during the
    sweep (see ``docs/observability.md``): every record gains a
    deterministic ``obs_metrics`` summary — identical between serial and
    parallel runs — and ``--obs-out`` receives a JSONL dump (trace events,
    when tracing, plus a final metrics-snapshot record from the coordinator
    process). Feed the saved sweeps to ``repro obs analyze ... -o
    report.md -o report.json`` for the consolidated run report.

    ``--profile-out DIR`` captures one deterministic cProfile artifact per
    grid cell (``profile-cell-NNNNNN.json`` — see ``docs/profiling.md``);
    render one with ``repro obs flamegraph``, compare two runs with
    ``repro obs profile-diff``. Profiled and unprofiled sweeps produce
    identical records.

    ``--bus-out DIR`` streams live progress events onto a telemetry bus
    (per-worker JSONL files; watch it from another terminal with
    ``python -m repro obs watch DIR`` — see ``docs/live.md``); DIR must
    not hold an earlier sweep's streams. ``--rules
    FILE`` evaluates a declarative alert-rule file against every finished
    cell's records; firings are printed (and pushed onto the bus) as
    findings, and ``--abort-on {warning,critical}`` stops the sweep early
    with exit code 2 the moment a rule fires at or above that severity.

    Every cell goes through ``repro.experiments.run_grid`` — the same
    pipeline behind ``repro serve`` (``docs/serve.md``), which runs these
    sweeps as queued multi-tenant jobs instead of one batch invocation.
    """
    from .serve import SweepJobSpec

    graphs = [g.strip().upper() for g in args.graphs.split(",")]
    grid = tuple(reduced_grid() if args.quick else parameter_grid())
    fault_config = _config(args, _FAULT)
    comm_configs = list(comm_grid(*_listed(args, _COMM)))
    if len(comm_configs) == 1 and not comm_configs[0]:
        # The all-default grid takes the exact pre-comm code path.
        comm_configs = [None]
    # One job spec per graph x comm x engine, as the serve daemon would
    # admit them: they refuse a bad graph or machine count before the
    # bus opens or obs is configured, and they are what the sweep runs.
    try:
        machines = [int(k) for k in args.machines.split(",")]
        specs = [
            SweepJobSpec(
                engine=name, graph=key,
                partitioners=engine.partitioner_names,
                machine_counts=tuple(machines), params=grid,
                scale=args.scale, seed=args.seed,
                num_epochs=args.epochs, fault=fault_config, comm=comm,
            )
            for key in graphs
            for comm in comm_configs
            for name, engine in ENGINES.items()
        ]
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    print(
        f"sweep: graphs={graphs} machines={machines} "
        f"configs={len(grid)} scale={args.scale}"
    )
    if comm_configs != [None]:
        print(
            "comm: "
            + ", ".join(c.label() for c in comm_configs)
        )
    if fault_config is not None:
        print(
            f"faults: crash={fault_config.crash_rate} "
            f"slowdown={fault_config.slowdown_rate} "
            f"loss={fault_config.loss_rate} "
            f"checkpoint-every={fault_config.checkpoint_every} "
            f"epochs={args.epochs} seed={fault_config.seed}"
        )

    from .obs.live import (
        BusWriter,
        RuleSet,
        SweepAborted,
        severity_at_least,
    )

    # Refuse bad flags before obs is configured, so a refused sweep
    # leaves no telemetry state behind.
    if args.abort_on and not args.rules:
        print("--abort-on needs --rules", file=sys.stderr)
        return 1
    if args.bus_out and glob.glob(
        os.path.join(args.bus_out, "events-*.jsonl")
    ):
        print(
            f"--bus-out {args.bus_out} already holds event streams of "
            "an earlier sweep; pass a new or empty directory",
            file=sys.stderr,
        )
        return 1
    rules = None
    if args.rules:
        rules = RuleSet.load(args.rules)
        print(f"rules: {len(rules.rules)} loaded from {args.rules}")

    _configure_obs(args)

    bus = None
    if args.bus_out:
        bus = BusWriter(args.bus_out, "coordinator")
        bus.sweep_start(
            sum(spec.num_cells for spec in specs),
            graphs=graphs, machine_counts=machines,
            configs=len(grid),
        )
        print(f"bus: streaming to {args.bus_out} "
              f"(watch: python -m repro obs watch {args.bus_out})")

    fired_alerts = []
    cell_callback = None
    if rules is not None:
        def cell_callback(cell, cell_records):
            firings = rules.evaluate_records(cell_records)
            for index, finding in enumerate(firings):
                if bus is not None:
                    bus.finding(cell, index, finding)
                print(
                    f"  alert [{finding.severity}] {finding.message}"
                )
            fired_alerts.extend(firings)
            if args.abort_on:
                fatal = [
                    f for f in firings
                    if severity_at_least(f.severity, args.abort_on)
                ]
                if fatal:
                    raise SweepAborted(fatal)

    workers = args.workers if args.workers > 0 else None
    records = {name: [] for name in ENGINES}
    aborted = None
    cell_offset = 0
    try:
        for spec in specs:
            graph = load_dataset(spec.graph, spec.scale, seed=spec.seed)
            start = time.time()
            records[spec.engine].extend(
                run_grid(
                    spec.engine, graph, spec.partitioners,
                    spec.machine_counts, spec.params, seed=spec.seed,
                    workers=workers, fault_config=spec.fault,
                    num_epochs=spec.num_epochs,
                    bus_dir=args.bus_out, cell_callback=cell_callback,
                    cell_offset=cell_offset, comm_config=spec.comm,
                    profile_dir=args.profile_out,
                )
            )
            cell_offset += spec.num_cells
            tag = "" if spec.comm is None else f" [{spec.comm.label()}]"
            print(
                f"{spec.graph}: {ENGINES[spec.engine].label} grid{tag} "
                f"done in {time.time() - start:.0f}s"
            )
    except SweepAborted as error:
        aborted = error
    finally:
        if bus is not None:
            bus.close()

    os.makedirs(args.out, exist_ok=True)
    for name, engine_records in records.items():
        path = os.path.join(args.out, f"sweep_{name}.json")
        save_records(engine_records, path)
        print(f"wrote {path} ({len(engine_records)} records)")

    if aborted is not None:
        if args.obs_level != "off":
            obs.reset()
            obs.disable()
        print(f"\nABORTED: {aborted}", file=sys.stderr)
        for finding in aborted.findings:
            print(
                f"  [{finding.severity}] {finding.subject}: "
                f"{finding.message}",
                file=sys.stderr,
            )
        return 2

    _finish_obs(args)
    if args.obs_level != "off" and args.obs_out:
        print(f"wrote {args.obs_out} (telemetry)")

    from .obs import analysis

    # One summary of the finished run (docs/analysis.md): saved when
    # asked, and its headline tables are the sweep's printed tail.
    report = analysis.build_analysis_report(
        analysis.RunData(
            label="sweep",
            records=[r for name in ENGINES for r in records[name]],
        )
    )
    report_dict = report.to_dict()
    if args.analysis_out:
        report.save(args.analysis_out)
        print(f"wrote {args.analysis_out} (analysis report)")
    if args.analysis_dashboard:
        with open(
            args.analysis_dashboard, "w", encoding="utf-8"
        ) as handle:
            handle.write(analysis.render_dashboard(report_dict))
        print(f"wrote {args.analysis_dashboard} (dashboard)")

    if rules is not None:
        if fired_alerts:
            print(f"\nalerts fired: {len(fired_alerts)}")
            for finding in fired_alerts:
                print(
                    f"  [{finding.severity}] {finding.subject}: "
                    f"{finding.message}"
                )
        else:
            print(f"\nalerts fired: none ({len(rules.rules)} rules)")

    print()
    print(analysis.render_headline_text(report_dict), end="")
    return 0


def _cmd_amortize(args) -> int:
    graph = _load_graph(args)
    params = _config(args, _MODEL)
    baseline = run_distgnn(
        graph, "random", args.machines, params, seed=args.seed
    )
    rows = []
    for name in EDGE_PARTITIONER_NAMES:
        if name == "random":
            continue
        record = run_distgnn(
            graph, name, args.machines, params, seed=args.seed
        )
        epochs = epochs_to_amortize(
            record.partitioning_seconds,
            baseline.epoch_seconds,
            record.epoch_seconds,
        )
        total = record.partitioning_seconds + (
            args.epochs * record.epoch_seconds
        )
        rows.append(
            (
                name,
                baseline.epoch_seconds / record.epoch_seconds,
                "no" if epochs is None else f"{epochs:.1f}",
                total,
            )
        )
    print(
        format_table(
            ["partitioner", "speedup", "amortizes after (epochs)",
             f"total s ({args.epochs} epochs)"],
            rows,
            f"Amortization on {graph.name}, {args.machines} machines "
            "(DistGNN full-batch)",
        )
    )
    return 0


def _cmd_recommend(args) -> int:
    from .experiments import recommend_edge_partitioner

    graph = _load_graph(args)
    params = _config(args, _MODEL)
    recommendation = recommend_edge_partitioner(
        graph, args.machines, args.epochs, params=params, seed=args.seed
    )
    rows = [
        (e.name, e.partitioning_seconds, e.epoch_seconds, e.total_seconds)
        for e in recommendation.estimates
    ]
    print(
        format_table(
            ["partitioner", "partition s", "epoch s",
             f"total s ({args.epochs} epochs)"],
            rows,
            f"Advisor (sampled subgraph): best = {recommendation.best}",
        )
    )
    return 0


def _split_run_paths(values: List[str]) -> List[str]:
    """Expand comma-separated path lists from the command line."""
    paths: List[str] = []
    for value in values:
        paths.extend(p for p in value.split(",") if p)
    return paths


_REPORT_SUFFIXES = (".json", ".md", ".html")


def _report_output(path: str) -> str:
    """``obs analyze -o`` value: the suffix picks the renderer."""
    if not path.endswith(_REPORT_SUFFIXES):
        raise argparse.ArgumentTypeError(
            f"{path!r}: expected a path ending in one of "
            f"{', '.join(_REPORT_SUFFIXES)}"
        )
    return path


def _cmd_obs_analyze(args) -> int:
    from .obs import analysis

    run = analysis.load_run_inputs(
        _split_run_paths(args.inputs), label=args.label or ""
    )
    if not (run.records or run.metrics or run.events):
        print("no records, metrics or events in the given inputs",
              file=sys.stderr)
        return 1
    report = analysis.build_analysis_report(run)
    report_dict = report.to_dict()
    print(analysis.render_report_text(report_dict), end="")
    for path in args.out:
        if path.endswith(".json"):
            text = report.to_json()
        elif path.endswith(".md"):
            text = analysis.render_report_markdown(report_dict)
        else:
            text = analysis.render_dashboard(report_dict, title=args.title)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {path}")
    if args.strict and report.worst_severity() == "critical":
        return 1
    return 0


def _cmd_obs_diff(args) -> int:
    from .obs import analysis

    run_a = analysis.load_run_inputs(_split_run_paths([args.run_a]))
    run_b = analysis.load_run_inputs(_split_run_paths([args.run_b]))
    diff = analysis.diff_runs(run_a, run_b)
    diff_dict = diff.to_dict()
    print(analysis.render_diff_text(diff_dict), end="")
    if args.out:
        import json as _json

        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(
                _json.dumps(diff_dict, indent=2, sort_keys=True) + "\n"
            )
        print(f"diff written to {args.out}")
    return 0 if diff.clean else 1


def _cmd_obs_watch(args) -> int:
    from .obs.live import BusTailer, RuleSet, WatchState, watch_loop

    rules = RuleSet.load(args.rules) if args.rules else None
    state = WatchState(rules=rules)
    tailer = BusTailer(args.bus_dir)
    ticks = 1 if args.once else args.ticks
    watch_loop(
        tailer, state, ticks=ticks, interval=args.interval,
        out=sys.stdout, ansi=not args.no_ansi,
    )
    if args.summary_json:
        state.report().save(args.summary_json)
        print(f"summary written to {args.summary_json}")
    return 0


def _cmd_obs_top(args) -> int:
    import functools
    import json as json_module

    from .obs.live import RuleSet, fetch_status, top_loop

    rules = RuleSet.load(args.rules) if args.rules else None
    ticks = 1 if args.once else args.ticks
    status = top_loop(
        functools.partial(fetch_status, args.url),
        rules=rules, ticks=ticks, interval=args.interval,
        out=sys.stdout, ansi=not args.no_ansi,
    )
    if args.summary_json:
        with open(args.summary_json, "w", encoding="utf-8") as handle:
            json_module.dump(
                status, handle, indent=2, sort_keys=True
            )
            handle.write("\n")
        print(f"summary written to {args.summary_json}")
    return 1 if status.get("error") else 0


def _cmd_serve(args) -> int:
    from .serve import SweepScheduler, serve_forever

    scheduler = SweepScheduler(
        workers=args.workers,
        data_dir=args.data_dir,
        max_pending_cells=args.max_pending_cells,
        obs_level=args.obs_level,
    )
    print(
        f"repro serve on http://{args.host}:{args.port} "
        f"(workers={args.workers}, data_dir={scheduler.data_dir}, "
        f"max_pending_cells={args.max_pending_cells}, "
        f"obs_level={args.obs_level})"
    )
    serve_forever(scheduler, host=args.host, port=args.port)
    return 0


def _cmd_submit(args) -> int:
    from .serve import ServeClient, ServeError

    if args.spec == "-":
        spec = json.load(sys.stdin)
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    if args.tenant is not None:
        spec["tenant"] = args.tenant
    if args.priority is not None:
        spec["priority"] = args.priority
    client = ServeClient(args.url)
    try:
        job = client.submit(spec)
    except ServeError as exc:
        print(f"submit failed: {exc}")
        if exc.status == 429 and exc.retry_after:
            print(f"retry in ~{exc.retry_after}s")
        return 1
    print(
        f"{job['id']}: {job['state']} "
        f"({job['cells_done']}/{job['cells_total']} cells, "
        f"{job['dedup_hits']} dedup hits) bus={job['bus_dir']}"
    )
    if not args.wait:
        return 0
    try:
        job = client.wait(job["id"], timeout=args.timeout)
    except TimeoutError as exc:
        print(f"wait: {exc}")
        return 1
    print(
        f"{job['id']}: {job['state']} "
        f"({job['records_done']} records, "
        f"{job['dedup_hits']} dedup hits)"
    )
    if job.get("error"):
        print(f"error: {job['error']}")
    if args.out:
        full = client.job(job["id"], records=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(full["records"], handle, indent=2)
        print(f"records written to {args.out}")
    return 0 if job["state"] == "done" else 1


def _cmd_jobs(args) -> int:
    from .serve import ServeClient, ServeError

    client = ServeClient(args.url)
    try:
        if args.cancel:
            job = client.cancel(args.cancel)
            print(f"{job['id']}: {job['state']}")
            return 0
        if args.queue:
            print(json.dumps(client.queue(), indent=2))
            return 0
        if args.job:
            print(json.dumps(client.job(args.job), indent=2))
            return 0
        jobs = client.jobs()
    except ServeError as exc:
        print(f"request failed: {exc}")
        return 1
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print(
            f"{job['id']}  {job['state']:<9} tenant={job['tenant']} "
            f"prio={job['priority']} "
            f"cells={job['cells_done']}/{job['cells_total']} "
            f"dedup={job['dedup_hits']}"
        )
    return 0


def _cmd_obs_profile(args) -> int:
    import os

    from .obs.profiling import capture as profiling
    from .obs.profiling import render_flamegraph

    command = list(args.profile_argv)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print(
            "obs profile: give a repro subcommand to profile, e.g.\n"
            "  repro obs profile -o prof.json -- distgnn --graph DI "
            "--partitioner hdrf -k 4"
        )
        return 2
    label = args.label or " ".join(command)
    if args.scoped:
        profiling.enable()
        try:
            code = main(command)
            profiles = profiling.drain()
        finally:
            profiling.disable()
        os.makedirs(args.scoped, exist_ok=True)
        for index, prof in enumerate(profiles):
            slug = "".join(
                c if c.isalnum() or c in "._-" else "-"
                for c in prof.name
            )
            path = os.path.join(
                args.scoped, f"scope-{index:04d}-{slug}.json"
            )
            prof.save(path)
        print(
            f"{len(profiles)} scoped profiles written to {args.scoped}"
        )
        return code
    with profiling.capture(
        f"cli:{command[0]}", meta={"argv": command}
    ) as cap:
        code = main(command)
    prof = cap.profile
    if prof is None:
        print("obs profile: a capture was already active; no profile")
        return 1
    print(prof.top_table(args.top))
    if args.out:
        prof.save(args.out)
        print(f"profile written to {args.out}")
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(prof.collapsed())
        print(f"collapsed stacks written to {args.collapsed}")
    if args.flamegraph:
        html = render_flamegraph(prof, title=f"Flamegraph: {label}")
        with open(args.flamegraph, "w", encoding="utf-8") as handle:
            handle.write(html)
        print(f"flamegraph written to {args.flamegraph}")
    return code


def _cmd_obs_flamegraph(args) -> int:
    from .obs.profiling import load_profile, render_flamegraph

    profile = load_profile(args.profile)
    if not profile.stacks:
        print(
            f"{args.profile} has no collapsed stacks (a trimmed "
            "hotspot table?); cannot render a flamegraph"
        )
        return 1
    title = args.title or f"Flamegraph: {profile.name}"
    html = render_flamegraph(profile, title=title)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html)
    print(
        f"flamegraph written to {args.out} "
        f"({len(profile.stacks)} stacks)"
    )
    return 0


def _cmd_obs_profile_diff(args) -> int:
    from .obs.profiling import load_profile, profile_diff, render_diff

    base = load_profile(args.base)
    new = load_profile(args.new)
    diff = profile_diff(
        base, new,
        threshold=args.threshold, min_seconds=args.min_seconds,
    )
    print(render_diff(diff, top=args.top))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(diff.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"diff written to {args.out}")
    return 0 if diff.is_empty else 1


def _cmd_obs_trend(args) -> int:
    from .obs.analysis.anomaly import AnomalyThresholds
    from .obs.profiling.trend import (
        TrendThresholds,
        detect_trends,
        extract_history_series,
        load_bench_history,
        render_trend_report,
    )

    history = load_bench_history(args.bench)
    thresholds = TrendThresholds(
        anomaly=AnomalyThresholds(z_threshold=args.z_threshold),
        creep_ratio=args.creep_ratio,
    )
    findings = detect_trends(history, thresholds)
    series = extract_history_series(history)
    print(render_trend_report(findings, series, thresholds))
    if args.out:
        payload = {
            "bench": args.bench,
            "entries": len(history),
            "thresholds": thresholds.to_dict(),
            "findings": [f.to_dict() for f in findings],
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"trend report written to {args.out}")
    return 1 if findings else 0


_OBS_COMMANDS = {
    "analyze": _cmd_obs_analyze,
    "diff": _cmd_obs_diff,
    "watch": _cmd_obs_watch,
    "top": _cmd_obs_top,
    "profile": _cmd_obs_profile,
    "flamegraph": _cmd_obs_flamegraph,
    "profile-diff": _cmd_obs_profile_diff,
    "trend": _cmd_obs_trend,
}


def _cmd_obs(args) -> int:
    return _OBS_COMMANDS[args.obs_command](args)


def _add_monitor_arguments(parser, until: str, rules: str, summary: str):
    """The frame-loop flags ``obs watch`` and ``obs top`` share."""
    parser.add_argument(
        "--ticks", type=int, default=None,
        help=f"render exactly N frames then exit (default: until {until})",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between frames (default: 1.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit",
    )
    parser.add_argument("--rules", default=None, help=rules)
    parser.add_argument(
        "--no-ansi", action="store_true",
        help="never emit ANSI clear codes (append frames instead)",
    )
    parser.add_argument("--summary-json", default=None, help=summary)


def _add_obs_subcommands(sub) -> None:
    """Attach the ``repro obs`` command group."""
    obs_parser = sub.add_parser(
        "obs",
        help="analyze run telemetry: diagnose, diff, watch, top, "
             "profile, flamegraph, trend",
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    analyze = obs_sub.add_parser(
        "analyze",
        help="critical-path attribution + anomaly findings for one run",
    )
    analyze.add_argument(
        "inputs", nargs="+",
        help="run artifacts: record JSON, metrics snapshot JSON, and/or "
             "JSONL traces (comma-separated lists accepted)",
    )
    analyze.add_argument(
        "-o", "--out", action="append", default=[], type=_report_output,
        help="write the report here; the suffix picks the renderer "
             "(.json report, .md run report, .html self-contained "
             "dashboard) and the flag may be repeated",
    )
    analyze.add_argument("--label", default=None,
                         help="override the run label")
    analyze.add_argument("--title", default="Telemetry analysis")
    analyze.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any critical finding is raised",
    )

    diff = obs_sub.add_parser(
        "diff",
        help="regression-diff two runs' artifacts (exit 1 when not clean)",
    )
    diff.add_argument(
        "run_a", help="baseline run artifact(s), comma-separated"
    )
    diff.add_argument(
        "run_b", help="candidate run artifact(s), comma-separated"
    )
    diff.add_argument(
        "-o", "--out", default=None, help="write the diff JSON here"
    )

    watch = obs_sub.add_parser(
        "watch",
        help="live terminal monitor over a sweep's telemetry bus "
             "(see docs/live.md)",
    )
    watch.add_argument(
        "bus_dir",
        help="bus directory (repro sweep --bus-out DIR)",
    )
    _add_monitor_arguments(
        watch, "the sweep completes",
        rules="alert-rules JSON evaluated over streamed records "
              "(see docs/live.md)",
        summary="write the analysis report of the streamed records here "
                "on exit (the bytes repro sweep --analysis-out writes)",
    )

    top = obs_sub.add_parser(
        "top",
        help="live ops monitor over a running serve daemon "
             "(see docs/serve.md)",
    )
    top.add_argument(
        "url",
        help="daemon base URL, e.g. http://127.0.0.1:8642",
    )
    _add_monitor_arguments(
        top, "interrupted",
        rules="alert-rules JSON evaluated over the daemon's /metrics "
              "totals (see examples/serve_rules.json)",
        summary="write the final fetched status (healthz/queue/totals) "
                "JSON here on exit",
    )

    profile = obs_sub.add_parser(
        "profile",
        help="run a repro subcommand under the deterministic cProfile "
             "capture (see docs/profiling.md)",
    )
    profile.add_argument(
        "-o", "--out", default=None,
        help="write the normalized profile artifact JSON here",
    )
    profile.add_argument(
        "--collapsed", default=None,
        help="write flamegraph.pl-style folded stacks here",
    )
    profile.add_argument(
        "--flamegraph", default=None,
        help="write the self-contained flamegraph HTML here",
    )
    profile.add_argument(
        "--top", type=int, default=15,
        help="hotspot table rows to print (default: 15)",
    )
    profile.add_argument(
        "--label", default=None,
        help="override the flamegraph title label",
    )
    profile.add_argument(
        "--scoped", default=None, metavar="DIR",
        help="instead of one whole-command capture, enable the "
             "ambient profile_scope hooks (partitioner kernels, "
             "engine epochs, executor cells) and write one profile "
             "per scope into DIR",
    )
    profile.add_argument(
        "profile_argv", nargs=argparse.REMAINDER, metavar="command",
        help="the repro subcommand to profile (prefix with --)",
    )

    flame = obs_sub.add_parser(
        "flamegraph",
        help="render a profile artifact as a single-file flamegraph "
             "HTML",
    )
    flame.add_argument("profile", help="profile artifact JSON")
    flame.add_argument("-o", "--out", required=True,
                       help="output HTML path")
    flame.add_argument("--title", default=None)

    pdiff = obs_sub.add_parser(
        "profile-diff",
        help="function-level regression diff of two profile artifacts "
             "(exit 1 when not clean)",
    )
    pdiff.add_argument("base", help="baseline profile artifact JSON")
    pdiff.add_argument("new", help="candidate profile artifact JSON")
    pdiff.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="relative cumtime growth that flags a function "
             "(default: %(default)s)",
    )
    pdiff.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS,
        help="absolute cumtime growth floor in seconds "
             "(default: %(default)s)",
    )
    pdiff.add_argument(
        "--top", type=int, default=15,
        help="rows to print (default: 15)",
    )
    pdiff.add_argument(
        "-o", "--out", default=None, help="write the diff JSON here"
    )

    trend = obs_sub.add_parser(
        "trend",
        help="MAD drift detection over the bench history: catch "
             "multi-PR slow creep (exit 1 on findings)",
    )
    trend.add_argument(
        "--bench", default="BENCH_partitioning.json",
        help="bench history file (default: BENCH_partitioning.json)",
    )
    trend.add_argument(
        "--z-threshold", type=float, default=3.5,
        help="rolling MAD z-score threshold (default: 3.5)",
    )
    trend.add_argument(
        "--creep-ratio", type=float, default=1.25,
        help="oldest-vs-newest median ratio that flags total drift "
             "(default: 1.25)",
    )
    trend.add_argument(
        "-o", "--out", default=None,
        help="write the trend report JSON here",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level ``repro`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed-GNN partitioning study reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the built-in dataset stand-ins")

    spool = sub.add_parser(
        "spool",
        help="write an edge stream to an on-disk chunk store "
             "(see docs/partitioners.md, out-of-core pipeline)",
    )
    _add_graph_arguments(spool)
    spool.add_argument(
        "--out", required=True, help="chunk-store directory to create"
    )
    spool.add_argument(
        "--chunk-size", type=int, default=DEFAULT_STORE_CHUNK,
        help="rows per chunk file (bounds pipeline peak memory)",
    )
    spool.add_argument(
        "--arcs", action="store_true",
        help="spool raw directed arcs instead of the canonical "
             "undirected edge view the partitioners consume",
    )
    rmat = spool.add_argument_group(
        "chunk-native RMAT (never materialises the edge list)"
    )
    rmat.add_argument(
        "--rmat-scale", type=int, default=18,
        help="log2 of the vertex count (default: 18)",
    )
    rmat.add_argument(
        "--rmat-edges", type=int, default=None,
        help="generate this many RMAT edges instead of loading --graph",
    )
    rmat.add_argument("--rmat-seed", type=int, default=42)
    rmat.add_argument(
        "--rmat-directed", action="store_true",
        help="keep arcs directed (default: canonical undirected pairs)",
    )

    partition = sub.add_parser("partition", help="run one partitioner")
    _add_graph_arguments(partition)
    partition.add_argument(
        "--cut", choices=("vertex-cut", "edge-cut"), default="edge-cut"
    )
    partition.add_argument(
        "--algorithm", default="metis",
        help=f"vertex-cut: {', '.join(EDGE_PARTITIONER_NAMES)}; "
             f"edge-cut: {', '.join(VERTEX_PARTITIONER_NAMES)}",
    )
    partition.add_argument("-k", "--machines", type=int, default=8)
    partition.add_argument("--output", default=None)
    ooc = partition.add_argument_group("out-of-core (chunk-store) drive")
    ooc.add_argument(
        "--store", default=None,
        help="partition a spooled chunk store (from `repro spool`) "
             "instead of an in-memory graph",
    )
    ooc.add_argument(
        "--shuffle-out", default=None,
        help="with --store and --cut vertex-cut: bucket every edge "
             "into per-partition stores under this directory",
    )
    _add_obs_arguments(partition)

    for command, help, partitioner in (
        ("distgnn", "simulate full-batch training", "hep100"),
        ("distdgl", "simulate mini-batch training", "metis"),
    ):
        engine = sub.add_parser(command, help=help)
        _add_run_arguments(engine)
        _add_fault_arguments(engine)
        _add_comm_arguments(engine)
        _add_obs_arguments(engine)
        engine.add_argument("--partitioner", default=partitioner)
        if command == "distdgl":
            _add_config_arguments(engine, _DISTDGL_MODEL)

    sweep = sub.add_parser(
        "sweep",
        help="run the full Table 3 sweep over both engines",
        description=_cmd_sweep.__doc__,
    )
    sweep.add_argument("--quick", action="store_true",
                       help="reduced grid instead of the full 27 configs")
    sweep.add_argument("--graphs", default=",".join(DATASET_KEYS))
    sweep.add_argument(
        "--machines", default=",".join(str(k) for k in MACHINE_COUNTS)
    )
    sweep.add_argument("--scale", default="small", choices=DATASET_SCALES)
    sweep.add_argument("--out", default=".")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="processes for the grid fan-out (0 = one per CPU, 1 = serial)",
    )
    _add_fault_arguments(sweep)
    _add_comm_arguments(sweep, listed=True)
    _add_obs_arguments(sweep)
    sweep.add_argument("--analysis-out", default=None,
                       help="write an analysis report JSON for the sweep "
                            "(see docs/analysis.md); built from the "
                            "records only, so serial and parallel sweeps "
                            "produce identical reports")
    sweep.add_argument("--analysis-dashboard", default=None,
                       help="also write the self-contained HTML dashboard")
    sweep.add_argument("--bus-out", default=None,
                       help="telemetry-bus directory (new or empty): "
                            "stream live progress events for "
                            "`repro obs watch`")
    sweep.add_argument("--profile-out", default=None,
                       help="directory for per-cell cProfile artifacts "
                            "(profile-cell-NNNNNN.json; render with "
                            "`repro obs flamegraph`, compare with "
                            "`repro obs profile-diff`)")
    sweep.add_argument("--rules", default=None,
                       help="alert-rules JSON evaluated per finished "
                            "cell (see docs/live.md)")
    sweep.add_argument("--abort-on", default=None,
                       choices=("warning", "critical"),
                       help="stop the sweep (exit 2) when a rule fires "
                            "at or above this severity")

    for command, help in (
        ("amortize", "amortization analysis (paper RQ-5)"),
        ("recommend",
         "advise a partitioner via a cheap sampled-subgraph study"),
    ):
        study = sub.add_parser(command, help=help)
        _add_run_arguments(study)
        study.add_argument("--epochs", type=int, default=100)

    _add_obs_subcommands(sub)

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant sweep-job daemon (see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--workers", type=int, default=1,
        help="concurrent cells (1 = in-process; >1 uses a process pool)",
    )
    serve.add_argument(
        "--data-dir", default=None,
        help="job artifacts root (per-job bus + records; "
             "default: a fresh temp dir)",
    )
    serve.add_argument(
        "--max-pending-cells", type=int, default=256,
        help="admission bound: queued cells before POST /jobs gets 429",
    )
    serve.add_argument(
        "--obs-level", default="off", choices=obs.LEVELS,
        help="daemon observability: metrics enables GET /metrics; "
             "trace additionally writes per-job trace JSONL "
             "(default: off)",
    )

    submit = sub.add_parser(
        "submit", help="submit a sweep-job spec to a running daemon"
    )
    submit.add_argument(
        "spec", help="job spec JSON file ('-' reads stdin)"
    )
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon base URL",
    )
    submit.add_argument("--tenant", default=None,
                        help="override the spec's tenant")
    submit.add_argument("--priority", type=int, default=None,
                        help="override the spec's priority")
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes (exit 1 unless it is done)",
    )
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds")
    submit.add_argument(
        "--out", default=None,
        help="with --wait: write the job's records JSON here",
    )

    jobs = sub.add_parser(
        "jobs", help="list/inspect/cancel jobs on a running daemon"
    )
    jobs.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon base URL",
    )
    jobs.add_argument("--job", default=None,
                      help="show one job's full JSON summary")
    jobs.add_argument("--cancel", default=None,
                      help="cancel this job id")
    jobs.add_argument(
        "--queue", action="store_true",
        help="show the scheduler queue snapshot instead of jobs",
    )

    return parser


_COMMANDS = {
    "datasets": _cmd_datasets,
    "spool": _cmd_spool,
    "partition": _cmd_partition,
    "distgnn": _cmd_engine,
    "distdgl": _cmd_engine,
    "sweep": _cmd_sweep,
    "amortize": _cmd_amortize,
    "recommend": _cmd_recommend,
    "obs": _cmd_obs,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point: parse ``argv`` and dispatch the subcommand."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
