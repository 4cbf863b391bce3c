"""One workload pass in this (fresh) interpreter; spawned by run.py.

Prints one JSON object on its last stdout line. ``--pass``:

* ``untraced`` repeats untraced rounds until ``--seconds`` are used and
  reports ``setup_s`` and ``throughput_per_s``;
* ``traced`` runs one untraced and one traced round on the same inputs,
  plus the workload's stand-alone probes, and reports the per-layer
  metrics;
* ``setup`` stops after set-up (run.py takes the median of several);
* ``memory`` runs set-up and one round and reports ``peak_rss_mb``
  (run.py gives this pass an allocator setting under which resident
  memory follows live memory).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

from checks import Ops, records_sha256
from tracing import NullTracer, Tracer
from workloads import SIZES, WORKLOADS, Context

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def peak_rss_mib() -> float:
    """Largest single process so far: this one or a reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def sim_metrics(exported: List[Dict[str, object]]) -> Dict[str, float]:
    """The exact-repeat simulated statistics of a round's records."""
    gnn = [e["data"] for e in exported if e["kind"] == "distgnn"]
    dgl = [e["data"] for e in exported if e["kind"] == "distdgl"]

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "sim.distgnn.epoch_seconds_sum": sum(d["epoch_seconds"] for d in gnn),
        "sim.distdgl.epoch_seconds_sum": sum(d["epoch_seconds"] for d in dgl),
        "sim.network_bytes_sum": sum(d["network_bytes"] for d in gnn + dgl),
        "sim.replication_factor_mean": mean(
            [d["replication_factor"] for d in gnn]
        ),
        "sim.edge_cut_mean": mean([d["edge_cut"] for d in dgl]),
        "sim.oom_records": sum(1 for d in gnn if d["out_of_memory"]),
    }


def timed_round(workload, ctx: Context, r: int, tracer):
    """prepare -> timed round -> after_round; returns
    ``(items, wall seconds, start, end)``."""
    workload.prepare(ctx, r)
    start = time.perf_counter()
    items, payload = workload.round(ctx, r, tracer)
    end = time.perf_counter()
    workload.after_round(ctx, r, payload, tracer)
    return items, end - start, start, end


def untraced_pass(workload, ctx: Context, seconds: float, setup_s: float):
    """Whole rounds until ``seconds`` are used; end-to-end metrics."""
    rates: List[float] = []
    walls: List[float] = []
    began = time.monotonic()
    r = 0
    while True:
        round_began = time.monotonic()
        items, wall, _, _ = timed_round(workload, ctx, r, NullTracer())
        rates.append(items / wall)
        walls.append(round(wall, 3))
        r += 1
        # Another round only while at least half of it still fits.
        now = time.monotonic()
        if now - began + 0.5 * (now - round_began) > seconds:
            break
    workload.teardown(ctx)
    workload.check(ctx)
    metrics = {"setup_s": setup_s, "throughput_per_s": statistics.median(rates)}
    return metrics, {"rounds": r, "round_walls_s": walls}


def memory_pass(workload, ctx: Context):
    """One round; the largest process once every child has exited."""
    timed_round(workload, ctx, 0, NullTracer())
    workload.teardown(ctx)
    return {"peak_rss_mb": peak_rss_mib()}, {}


def traced_pass(workload, ctx: Context, tracer: Tracer):
    """One untraced and one traced round on the same inputs, then the
    stand-alone probes; per-layer metrics."""
    _, untraced_wall, _, _ = timed_round(workload, ctx, 0, NullTracer())
    sim = sim_metrics(workload.exported)
    sha = records_sha256(workload.exported)
    _, traced_wall, start, end = timed_round(workload, ctx, 0, tracer)
    workload.probes(ctx, tracer)
    workload.teardown(ctx)
    workload.check(ctx)
    metrics = workload.layer_metrics(ctx, tracer, untraced_wall)
    coverage = tracer.top_level_total(start, end) / (traced_wall * workload.lanes)
    ctx.ops.check(
        0.85 <= coverage <= 1.15,
        f"trace.coverage_share {coverage:.3f} outside 0.85-1.15",
    )
    metrics.update(sim)
    metrics["trace.overhead_share"] = (traced_wall - untraced_wall) / untraced_wall
    metrics["trace.coverage_share"] = coverage
    return metrics, {
        "records_sha256": sha,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pass", dest="pass_", required=True,
                        choices=("untraced", "traced", "setup", "memory"))
    parser.add_argument("--sizes", choices=sorted(SIZES), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    args = parser.parse_args()

    out_root = os.path.join(BENCH_DIR, "out")
    traced = args.pass_ == "traced"
    tracer = Tracer(args.workload) if traced else NullTracer()
    ctx = Context(
        seed=args.seed,
        sizes=SIZES[args.sizes],
        out_dir=os.path.join(out_root, f"{args.workload}-{os.getpid()}"),
        ops=Ops(),
        tracer=tracer,
    )
    workload = WORKLOADS[args.workload]()
    try:
        workload.setup(ctx)
        setup_s = time.monotonic() - args.spawned_at
        if args.pass_ == "setup":
            metrics, info = {"setup_s": setup_s}, {}
        elif args.pass_ == "memory":
            metrics, info = memory_pass(workload, ctx)
        elif traced:
            metrics, info = traced_pass(workload, ctx, tracer)
        else:
            metrics, info = untraced_pass(workload, ctx, args.seconds, setup_s)
    finally:
        workload.teardown(ctx)
    if traced:
        os.makedirs(out_root, exist_ok=True)
        tracer.write(os.path.join(out_root, f"trace-{args.workload}.json"))
    print(json.dumps({
        "metrics": metrics,
        "attempted": ctx.ops.attempted,
        "failed": ctx.ops.failed,
        "failures": ctx.ops.failures,
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
