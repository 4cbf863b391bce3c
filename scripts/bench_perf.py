"""Microbenchmark suite for the partitioning and sampling kernels.

Times every registered partitioner (plus the streaming extensions) on
the standard small-scale synthetic graphs at ``k=32``, the
neighbourhood sampling kernel on the largest graph, one
27-configuration DistDGL cell with and without recorded sampling
traces, the overhead of the observability hooks on a
fixed simulation cell (plain / off / metrics / trace), the bookkeeping cost
of the comm codecs on the same cell (none / fp16 / int8 / topk —
``docs/communication.md``), and — new with the
out-of-core pipeline — a *scale sweep*: RMAT streams of 10^4 … 10^7
edges spooled through the chunk store and driven through every
streaming partitioner, recording edges/sec and the peak memory of the
drive (``tracemalloc`` high-water plus RSS) per decade, so
``scripts/check_perf.py`` can assert that out-of-core peak memory
grows sublinearly in the edge count.

``BENCH_partitioning.json`` at the repo root is a *history series*
(schema 2): a retained ``baseline`` report plus a ``history`` list to
which every run appends a timestamped entry, so the perf trajectory is
tracked over time rather than overwritten. ``scripts/check_perf.py``
gates against the latest history entry (falling back to the baseline).
A legacy schema-1 flat report is migrated in place: it becomes the
baseline and the fresh run starts the history.

Usage::

    python scripts/bench_perf.py [--out FILE] [--repeats N] [--quick]
        [--set-baseline] [--keep N] [--scale-sweep-max EDGES]
        [--profile]

``--quick`` runs a single repeat per kernel and restricts the scale
sweep to the fast algorithms (used by the perf gate); the committed
baseline should be produced with the default repeats and
``--scale-sweep-max 10000000`` so the 10^7 decade is on record.
``--set-baseline`` promotes this run to the retained baseline; ``--keep``
bounds the history length (oldest entries are dropped).

``--profile`` additionally captures one trimmed cProfile artifact per
kernel (top functions by cumtime, stacks dropped) into the history
entry's ``profiles`` section; when a later ``check_perf.py`` run trips
a kernel gate, it diffs a fresh capture against that section to name
the regressed functions. The hooks themselves are benchmarked
unconditionally (``profiling_overhead``): the disabled ``profile_scope``
checks on the hot paths are gated with the same budget as the obs
hooks. ``repro obs trend`` reads the same history file for slow-creep
detection (see ``docs/profiling.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.gnn.sampling import default_fanouts, sample_blocks
from repro.graph import (
    DATASET_KEYS,
    EdgeChunkReader,
    load_dataset,
    rmat_edge_chunks,
    spool_edges,
)
from repro.obs import PeakMemoryTracker
from repro.partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    DbhPartitioner,
    EdgePartitioner,
    HdrfPartitioner,
    LdgPartitioner,
    RandomEdgePartitioner,
    TwoPsLPartitioner,
    make_edge_partitioner,
    make_vertex_partitioner,
    shuffle_stream,
)
from repro.partitioning.extensions.fennel import FennelPartitioner
from repro.partitioning.extensions.reldg import RestreamingLdgPartitioner

#: Machine count for all partitioner timings (the paper's largest).
BENCH_K = 32
#: The largest standard synthetic graph (by edges) — HDRF's 5x
#: speedup acceptance bar is measured here.
LARGEST_GRAPH = "HW"

#: RMAT scale for the out-of-core sweep. Fixed across decades so the
#: O(num_vertices) partitioner state is a *constant*: any growth in
#: peak memory with the edge count is the pipeline's own doing.
SCALE_SWEEP_SCALE = 18
#: Edge-count decades of the sweep (multigraph RMAT streams).
SCALE_SWEEP_DECADES = (10**4, 10**5, 10**6, 10**7)
#: Spool chunk size (rows) — deliberately smaller than the store
#: default so the bounded-memory claim is exercised, not hidden.
SCALE_SWEEP_CHUNK = 1 << 16
#: Stream seed shared by every decade (same generator, longer prefix).
SCALE_SWEEP_SEED = 42
#: Largest decade each algorithm runs: the Python-loop-heavy kernels
#: (union-find clustering, multi-pass restreaming) stop a decade early
#: to keep the full sweep under a few minutes.
SCALE_SWEEP_CAPS = {
    "hdrf": 10**7,
    "dbh": 10**7,
    "random": 10**7,
    "ldg": 10**6,
    "fennel": 10**6,
    "2ps-l": 10**6,
    "reldg": 10**6,
}
#: Subset the perf gate sweeps (tracemalloc slows the slower kernels
#: by minutes; the full set is recorded by the committed baseline run).
SCALE_SWEEP_QUICK_ALGOS = ("hdrf", "dbh", "random", "ldg")

_SWEEP_FACTORIES = {
    "hdrf": HdrfPartitioner,
    "dbh": DbhPartitioner,
    "random": RandomEdgePartitioner,
    "ldg": LdgPartitioner,
    "fennel": FennelPartitioner,
    "2ps-l": TwoPsLPartitioner,
    "reldg": RestreamingLdgPartitioner,
}


def _time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_partitioners(graphs: dict, repeats: int) -> dict:
    """Time every partitioner on every graph at ``k=BENCH_K``."""
    results: dict = {}
    extension_factories = {
        "fennel": FennelPartitioner,
        "reldg": RestreamingLdgPartitioner,
    }
    for key, graph in graphs.items():
        # Warm the cached adjacency views so timings isolate the kernels.
        graph.undirected_edges()
        graph.symmetric_csr()
        graph.degrees()
        for name in EDGE_PARTITIONER_NAMES:
            seconds = _time(
                lambda: make_edge_partitioner(name).partition(
                    graph, BENCH_K, seed=0
                ),
                repeats,
            )
            results[f"{key}/{name}"] = {"seconds": seconds}
        for name in VERTEX_PARTITIONER_NAMES:
            seconds = _time(
                lambda: make_vertex_partitioner(name).partition(
                    graph, BENCH_K, seed=0
                ),
                repeats,
            )
            results[f"{key}/{name}"] = {"seconds": seconds}
        for name, factory in extension_factories.items():
            seconds = _time(
                lambda: factory().partition(graph, BENCH_K, seed=0),
                repeats,
            )
            results[f"{key}/{name}"] = {"seconds": seconds}
    return results


def bench_sampling(graph, repeats: int) -> dict:
    """Time one 3-layer fan-out sampling pass over a large seed batch."""
    graph.symmetric_csr()
    rng = np.random.default_rng(0)
    seeds = rng.choice(graph.num_vertices, size=1024, replace=False)
    fanouts = default_fanouts(3)

    def run():
        sample_blocks(graph, seeds, fanouts, np.random.default_rng(1))

    return {
        "graph": graph.name,
        "batch": int(seeds.size),
        "fanouts": list(fanouts),
        "seconds": _time(run, repeats),
    }


def bench_distdgl_cell(graph, repeats: int) -> dict:
    """One 27-configuration DistDGL cell (the Table 3 grid on one cached
    partition): ``cold`` with no sampling trace recorded — three of the
    configurations sample, the rest replay them — and ``warm`` with the
    traces of an earlier run of the cell, where every step is only
    priced (``docs/performance.md``, "Sample once, price many").
    """
    from repro.distdgl.trace import clear_traces
    from repro.experiments import CellSpec, parameter_grid, run_cell
    from repro.graph import random_split

    split = random_split(graph, seed=0)
    spec = CellSpec(
        "distdgl", "metis", 8, seed=0, num_epochs=1,
        grid=tuple(parameter_grid()),
    )
    run_cell(graph, split, spec)  # warm partition cache

    def cold():
        clear_traces()
        run_cell(graph, split, spec)

    cold_seconds = _time(cold, repeats)
    warm_seconds = _time(lambda: run_cell(graph, split, spec), repeats)
    steps = sum(
        -(-split.train.size // params.global_batch_size)
        for params in spec.grid
    )
    return {
        "graph": graph.name,
        "k": spec.num_machines,
        "configurations": len(spec.grid),
        "steps": steps,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "seconds_per_priced_step": warm_seconds / steps,
    }


def bench_obs_overhead(repeats: int) -> dict:
    """Cost of the observability hooks on one fixed simulation cell.

    Times ``run_distgnn`` on the tiny OR graph at four instrumentation
    settings: ``plain`` (the hook entry points replaced with no-ops —
    the floor a hook-free build would reach), ``off`` (the shipped
    default: hooks present but disabled), ``metrics`` and ``trace``
    (events discarded by a null sink, so the timing isolates emission
    cost from disk). ``scripts/check_perf.py`` gates ``off`` against
    ``plain``: the disabled hooks must stay within a few percent, so
    instrumentation can be left in the hot path unconditionally.
    """
    from repro.experiments import TrainingParams, run_distgnn
    from repro.obs import api as obs_api
    from repro.obs.sink import EventSink

    class _NullSink(EventSink):
        def emit(self, event):
            pass

    graph = load_dataset("OR", "tiny", seed=0)
    params = TrainingParams()
    # One tiny cell takes ~2ms — below timer resolution — so each
    # timed sample runs it this many times back to back.
    inner = 50

    def cell():
        for _ in range(inner):
            run_distgnn(graph, "hdrf", 4, params, seed=0)

    run_distgnn(graph, "hdrf", 4, params, seed=0)  # warm partition cache

    hook_names = ("count", "gauge", "observe", "event")
    flag_names = ("enabled",)
    saved = {
        name: getattr(obs_api, name)
        for name in hook_names + flag_names
    }

    def _noop(*args, **kwargs):
        return None

    def enter_plain():
        for name in hook_names:
            setattr(obs_api, name, _noop)
        for name in flag_names:
            setattr(obs_api, name, lambda: False)

    def make_enter(level):
        def enter():
            obs_api.reset()
            obs_api.configure(
                level, sink=_NullSink() if level == "trace" else None
            )
        return enter

    def leave():
        for name, fn in saved.items():
            setattr(obs_api, name, fn)
        obs_api.disable()
        obs_api.reset()

    variants = [("plain", enter_plain)] + [
        (level, make_enter(level))
        for level in ("off", "metrics", "trace")
    ]
    # Interleave the variants round-robin: machine drift over the
    # benchmark's lifetime (frequency scaling, allocator growth) is of
    # the same order as the effect being measured, and sequential
    # blocks would fold that drift into the comparison.
    timings = {name: float("inf") for name, _ in variants}
    for _ in range(max(repeats, 3)):
        for name, enter in variants:
            enter()
            try:
                timings[name] = min(timings[name], _time(cell, 1))
            finally:
                leave()

    plain = timings["plain"]
    return {
        "graph": "OR",
        "scale": "tiny",
        "k": 4,
        "inner_repeats": inner,
        "plain_seconds": plain,
        "off_seconds": timings["off"],
        "metrics_seconds": timings["metrics"],
        "trace_seconds": timings["trace"],
        "off_overhead_fraction": (
            (timings["off"] - plain) / plain if plain > 0 else 0.0
        ),
        "metrics_overhead_fraction": (
            (timings["metrics"] - plain) / plain if plain > 0 else 0.0
        ),
    }


def bench_profiling_overhead(repeats: int) -> dict:
    """Cost of the profiling hooks on one fixed simulation cell.

    Mirrors :func:`bench_obs_overhead` for the ``profile_scope`` hooks
    compiled into the partitioner kernels, the engine epoch loops and
    the executor cells: ``plain`` replaces the hook entry point with a
    stub returning the shared null scope (the floor a hook-free build
    would reach), ``off`` is the shipped default (hook present, ambient
    capture disabled — one flag check per scope), and ``on`` runs with
    ambient capture enabled (informational: cProfile tracing is
    expected to be expensive; nobody gates it).
    ``scripts/check_perf.py`` gates ``off`` against ``plain`` with the
    same budget as the obs hooks — disabled profiling must stay within
    a few percent so the scopes can live on the hot path permanently.
    """
    from repro.experiments import TrainingParams, run_distgnn
    from repro.obs.profiling import capture as profiling

    graph = load_dataset("OR", "tiny", seed=0)
    params = TrainingParams()
    # Same sub-timer-resolution cell as bench_obs_overhead.
    inner = 50

    def cell():
        for _ in range(inner):
            run_distgnn(graph, "hdrf", 4, params, seed=0)

    run_distgnn(graph, "hdrf", 4, params, seed=0)  # warm partition cache

    saved_scope = profiling.profile_scope

    def _null_scope(name):
        return profiling._NULL_SCOPE

    def enter_plain():
        profiling.profile_scope = _null_scope

    def enter_off():
        profiling.disable()

    def enter_on():
        profiling.enable()

    def leave():
        profiling.profile_scope = saved_scope
        profiling.disable()  # also clears the ambient collector

    variants = (
        ("plain", enter_plain), ("off", enter_off), ("on", enter_on)
    )
    # Round-robin interleave, as in bench_obs_overhead: machine drift
    # is of the same order as the flag check being measured.
    timings = {name: float("inf") for name, _ in variants}
    for _ in range(max(repeats, 3)):
        for name, enter in variants:
            enter()
            try:
                timings[name] = min(timings[name], _time(cell, 1))
            finally:
                leave()

    plain = timings["plain"]
    return {
        "graph": "OR",
        "scale": "tiny",
        "k": 4,
        "inner_repeats": inner,
        "plain_seconds": plain,
        "off_seconds": timings["off"],
        "on_seconds": timings["on"],
        "off_overhead_fraction": (
            (timings["off"] - plain) / plain if plain > 0 else 0.0
        ),
        "on_overhead_fraction": (
            (timings["on"] - plain) / plain if plain > 0 else 0.0
        ),
    }


#: Functions kept per embedded kernel profile (top by cumtime).
PROFILE_TOP_FUNCTIONS = 40

_EXTENSION_FACTORIES = {
    "fennel": FennelPartitioner,
    "reldg": RestreamingLdgPartitioner,
}


def _trim_profile_dict(profile, top: int = PROFILE_TOP_FUNCTIONS) -> dict:
    """Serialize a profile trimmed for embedding in a history entry.

    Keeps the ``top`` hottest functions by cumtime and drops the
    collapsed stacks — enough for ``profile_diff`` and hotspot tables
    without bloating ``BENCH_partitioning.json``.
    """
    data = profile.to_dict()
    data["functions"] = [
        stat.to_dict()
        for stat in profile.top_functions(top, key="cumtime")
    ]
    data["stacks"] = {}
    data["meta"] = dict(data.get("meta") or {}, trimmed_top=top)
    return data


def _kernel_partitioner(name: str):
    if name in EDGE_PARTITIONER_NAMES:
        return make_edge_partitioner(name)
    if name in VERTEX_PARTITIONER_NAMES:
        return make_vertex_partitioner(name)
    return _EXTENSION_FACTORIES[name]()


def profile_kernel(kernel: str, graphs: dict = None):
    """A fresh, untrimmed :class:`Profile` of one ``GRAPH/name`` kernel.

    ``scripts/check_perf.py`` calls this when a kernel trips the gate,
    then diffs the result against the baseline's embedded profile to
    name the regressed functions.
    """
    from repro.obs.profiling import capture as profiling

    key, name = kernel.split("/", 1)
    graph = (graphs or {}).get(key)
    if graph is None:
        graph = load_dataset(key, "small", seed=0)
    graph.undirected_edges()
    graph.symmetric_csr()
    graph.degrees()
    with profiling.capture(f"kernel.{kernel}") as cap:
        _kernel_partitioner(name).partition(graph, BENCH_K, seed=0)
    return cap.profile


def bench_kernel_profiles(
    graphs: dict, top: int = PROFILE_TOP_FUNCTIONS
) -> dict:
    """One trimmed cProfile artifact per kernel (``--profile``).

    Keys match the ``kernels`` timing section (``GRAPH/name``) so the
    perf gate can look up the profile of whichever kernel regressed.
    Captured separately from the timing runs — cProfile tracing slows
    the kernels severalfold, so profiled timings would be useless.
    """
    from repro.obs.profiling import capture as profiling

    results: dict = {}
    for key, graph in graphs.items():
        graph.undirected_edges()
        graph.symmetric_csr()
        graph.degrees()
        names = (
            list(EDGE_PARTITIONER_NAMES)
            + list(VERTEX_PARTITIONER_NAMES)
            + list(_EXTENSION_FACTORIES)
        )
        for name in names:
            with profiling.capture(f"kernel.{key}/{name}") as cap:
                _kernel_partitioner(name).partition(
                    graph, BENCH_K, seed=0
                )
            results[f"{key}/{name}"] = _trim_profile_dict(
                cap.profile, top
            )
    return results


def bench_comm_codecs(repeats: int) -> dict:
    """Overhead of comm-codec bookkeeping on one fixed simulation cell.

    Times ``run_distgnn`` on the tiny OR cell with the null codec and
    once per real codec (fp16 / int8 / topk). The codecs are *modelled*
    — ratio arithmetic over byte counts, never an actual quantisation
    pass — so enabling one may only add bookkeeping;
    ``scripts/check_perf.py`` gates each codec's overhead fraction over
    the null-codec run.
    """
    from repro.comm import CommConfig
    from repro.experiments import TrainingParams, run_distgnn

    graph = load_dataset("OR", "tiny", seed=0)
    params = TrainingParams()
    # Same sub-timer-resolution cell as bench_obs_overhead.
    inner = 50

    def make_cell(comm):
        def cell():
            for _ in range(inner):
                run_distgnn(
                    graph, "hdrf", 4, params, seed=0, comm_config=comm
                )

        return cell

    run_distgnn(graph, "hdrf", 4, params, seed=0)  # warm partition cache

    variants = [("none", make_cell(None))] + [
        (name, make_cell(CommConfig(compression=name)))
        for name in ("fp16", "int8", "topk")
    ]
    # Round-robin interleave, as in bench_obs_overhead: machine drift
    # is of the same order as the bookkeeping being measured.
    timings = {name: float("inf") for name, _ in variants}
    for _ in range(max(repeats, 3)):
        for name, cell in variants:
            timings[name] = min(timings[name], _time(cell, 1))

    base = timings["none"]
    return {
        "graph": "OR",
        "scale": "tiny",
        "k": 4,
        "inner_repeats": inner,
        "seconds": timings,
        "overhead_fractions": {
            name: (seconds - base) / base if base > 0 else 0.0
            for name, seconds in timings.items()
            if name != "none"
        },
    }


def _spool_sweep_stream(num_edges: int, directory: str) -> float:
    """Spool a ``num_edges``-arc RMAT stream; returns elapsed seconds."""
    start = time.perf_counter()
    spool_edges(
        rmat_edge_chunks(
            SCALE_SWEEP_SCALE, num_edges, seed=SCALE_SWEEP_SEED
        ),
        directory,
        chunk_size=SCALE_SWEEP_CHUNK,
        num_vertices=1 << SCALE_SWEEP_SCALE,
        directed=True,
    )
    return time.perf_counter() - start


def _drive_stream(partitioner, reader: EdgeChunkReader) -> None:
    """Consume the streaming path the way the shuffle does.

    Edge partitioners are driven through ``stream_assignments`` with
    every block discarded — the bounded-memory use-case, where the
    assignment goes straight to per-partition buckets instead of being
    materialised. Vertex partitioners return an O(num_vertices)
    assignment, constant across the sweep's decades.
    """
    if isinstance(partitioner, EdgePartitioner):
        for _edges, _assignment in partitioner.stream_assignments(
            reader, BENCH_K, seed=0
        ):
            pass
    else:
        partitioner.partition_stream(reader, BENCH_K, seed=0)


def _run_pipeline(num_edges: int, directory: str) -> None:
    """End-to-end out-of-core pass: generate → spool → HDRF → shuffle."""
    spool_dir = os.path.join(directory, "spool")
    _spool_sweep_stream(num_edges, spool_dir)
    shuffle_stream(
        EdgeChunkReader(spool_dir),
        HdrfPartitioner(),
        BENCH_K,
        os.path.join(directory, "buckets"),
        seed=0,
    )


def bench_scale_sweep(max_edges: int, algos=None) -> dict:
    """Out-of-core throughput and peak memory per edge-count decade.

    Each decade spools a fresh RMAT multigraph stream (fixed vertex
    count ``2**SCALE_SWEEP_SCALE``), then each algorithm gets two
    passes:
    an untracked timing pass (edges/sec) and a ``PeakMemoryTracker``
    pass — tracemalloc slows allocation, so the two must not share a
    run. A ``pipeline`` entry measures the full generate → spool →
    partition → shuffle chain for HDRF at every decade.
    """
    names = list(algos) if algos is not None else list(_SWEEP_FACTORIES)
    series = []
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        for decade in SCALE_SWEEP_DECADES:
            if decade > max_edges:
                break
            spool_dir = os.path.join(tmp, f"spool-{decade}")
            spool_seconds = _spool_sweep_stream(decade, spool_dir)
            reader = EdgeChunkReader(spool_dir)
            entry = {
                "edges": decade,
                "spool_seconds": spool_seconds,
                "algorithms": {},
            }
            for name in names:
                if decade > SCALE_SWEEP_CAPS[name]:
                    continue
                factory = _SWEEP_FACTORIES[name]
                seconds = _time(
                    lambda: _drive_stream(factory(), reader), 1
                )
                with PeakMemoryTracker() as tracker:
                    _drive_stream(factory(), reader)
                entry["algorithms"][name] = {
                    "seconds": seconds,
                    "edges_per_sec": decade / seconds,
                    "memory": tracker.as_dict(),
                }
            pipe_dir = os.path.join(tmp, f"pipe-{decade}")
            seconds = _time(lambda: _run_pipeline(decade, pipe_dir), 1)
            shutil.rmtree(pipe_dir)
            with PeakMemoryTracker() as tracker:
                _run_pipeline(decade, pipe_dir)
            shutil.rmtree(pipe_dir)
            entry["pipeline"] = {
                "seconds": seconds,
                "edges_per_sec": decade / seconds,
                "memory": tracker.as_dict(),
            }
            series.append(entry)
            # Bound disk usage: the 10^7 spool alone is ~160 MB.
            shutil.rmtree(spool_dir)
    return {
        "rmat_scale": SCALE_SWEEP_SCALE,
        "k": BENCH_K,
        "store_chunk_size": SCALE_SWEEP_CHUNK,
        "seed": SCALE_SWEEP_SEED,
        "algorithms": names,
        "series": series,
    }


def run_bench(
    repeats: int,
    scale_sweep_max: int = 10**6,
    scale_sweep_algos=None,
    profile: bool = False,
) -> dict:
    graphs = {
        key: load_dataset(key, "small", seed=0) for key in DATASET_KEYS
    }
    report = {
        "schema": 2,
        "k": BENCH_K,
        "scale": "small",
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "kernels": bench_partitioners(graphs, repeats),
        "sampling": bench_sampling(graphs[LARGEST_GRAPH], repeats),
        "distdgl_cell": bench_distdgl_cell(graphs["OR"], repeats),
        "obs_overhead": bench_obs_overhead(repeats),
        "profiling_overhead": bench_profiling_overhead(repeats),
        "comm_codecs": bench_comm_codecs(repeats),
        "scale_sweep": bench_scale_sweep(
            scale_sweep_max, scale_sweep_algos
        ),
    }
    if profile:
        report["profiles"] = bench_kernel_profiles(graphs)
    return report


def load_series(path: str) -> dict:
    """Load the benchmark history series at ``path`` (schema 2).

    A missing file yields an empty series; a legacy schema-1 flat
    report is wrapped as the retained baseline with an empty history.
    """
    if not os.path.exists(path):
        return {"schema": 2, "baseline": None, "history": []}
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") == 2 and "history" in doc:
        return doc
    return {"schema": 2, "baseline": doc, "history": []}


def latest_report(series: dict) -> dict:
    """The most recent run in a series (legacy flat reports pass
    through unchanged) — what the perf gate compares against."""
    if series.get("schema") == 2 and "history" in series:
        if series["history"]:
            return series["history"][-1]
        return series["baseline"] or {}
    return series


def append_run(
    series: dict,
    report: dict,
    timestamp: str,
    set_baseline: bool = False,
    keep: int = 50,
) -> dict:
    """Append ``report`` to the history (and maybe the baseline)."""
    entry = dict(report)
    entry["timestamp"] = timestamp
    series["history"] = (series.get("history") or [])[-(keep - 1):]
    series["history"].append(entry)
    if set_baseline or series.get("baseline") is None:
        series["baseline"] = report
    return series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "BENCH_partitioning.json",
        ),
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true", help="single repeat per kernel"
    )
    parser.add_argument(
        "--set-baseline", action="store_true",
        help="promote this run to the retained baseline",
    )
    parser.add_argument(
        "--keep", type=int, default=50,
        help="history entries to retain (oldest dropped first)",
    )
    parser.add_argument(
        "--scale-sweep-max", type=int, default=10**6,
        help="largest out-of-core sweep decade (edges); the committed "
        "baseline run should use 10000000",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="embed a trimmed per-kernel cProfile hotspot table in "
        "the history entry (check_perf.py diffs it on a gate failure)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else args.repeats
    sweep_algos = SCALE_SWEEP_QUICK_ALGOS if args.quick else None

    report = run_bench(
        repeats,
        scale_sweep_max=args.scale_sweep_max,
        scale_sweep_algos=sweep_algos,
        profile=args.profile,
    )
    timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    series = append_run(
        load_series(args.out),
        report,
        timestamp,
        set_baseline=args.set_baseline,
        keep=args.keep,
    )
    with open(args.out, "w") as fh:
        json.dump(series, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"wrote {args.out} ({len(series['history'])} history "
        f"entries, latest {timestamp})"
    )
    overhead = report["obs_overhead"]
    print(
        f"obs hooks on {overhead['graph']}/{overhead['scale']} "
        f"(k={overhead['k']}): plain {overhead['plain_seconds']:.4f}s, "
        f"off +{overhead['off_overhead_fraction'] * 100:.1f}%, "
        f"metrics +{overhead['metrics_overhead_fraction'] * 100:.1f}%"
    )
    cell = report["distdgl_cell"]
    print(
        f"DistDGL cell on {cell['graph']} (k={cell['k']}, "
        f"{cell['configurations']} configurations): trace-cold "
        f"{cell['cold_seconds']:.3f}s, trace-warm "
        f"{cell['warm_seconds']:.3f}s "
        f"({cell['seconds_per_priced_step'] * 1e6:.0f} us/priced step)"
    )
    prof = report["profiling_overhead"]
    print(
        f"profiling hooks on {prof['graph']}/{prof['scale']} "
        f"(k={prof['k']}): plain {prof['plain_seconds']:.4f}s, "
        f"off +{prof['off_overhead_fraction'] * 100:.1f}%, "
        f"on +{prof['on_overhead_fraction'] * 100:.0f}%"
    )
    if "profiles" in report:
        print(
            f"kernel profiles: {len(report['profiles'])} embedded "
            f"(top {PROFILE_TOP_FUNCTIONS} functions each)"
        )
    slowest = sorted(
        report["kernels"].items(),
        key=lambda item: -item[1]["seconds"],
    )[:5]
    print("slowest kernels:")
    for name, entry in slowest:
        print(f"  {name}: {entry['seconds']:.3f}s")
    sweep = report["scale_sweep"]
    print(
        f"out-of-core sweep (RMAT scale {sweep['rmat_scale']}, "
        f"k={sweep['k']}, chunk {sweep['store_chunk_size']} rows):"
    )
    for entry in sweep["series"]:
        pipe = entry["pipeline"]
        traced = pipe["memory"]["traced_peak_bytes"] / 2**20
        print(
            f"  {entry['edges']:>9,} edges: pipeline "
            f"{pipe['edges_per_sec']:>11,.0f} edges/s, "
            f"peak {traced:.1f} MiB traced"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
