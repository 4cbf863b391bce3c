"""Perf regression gate.

Runs a fresh (quick) ``bench_perf`` pass and compares every kernel
timing, the sampling kernel and the DistDGL cell (trace-cold and
trace-warm) against the *latest entry* of the committed
``BENCH_partitioning.json`` history series (falling back to the
retained ``baseline`` report when the history is empty; legacy flat
schema-1 files still work). Fails (exit code 1) when any kernel is
more than ``--threshold`` times slower — the default 2x tolerates
machine-to-machine variance while catching real regressions. The
disabled observability hooks, the disabled profiling hooks and the
comm-codec bookkeeping are gated against tighter fractional budgets
on the fresh run.

When a kernel trips the gate, the failure is triaged at function
level: a fresh cProfile capture of the regressed kernel is diffed
against the baseline's embedded ``profiles`` section (written by
``bench_perf.py --profile``) and the ranked hotspot diff is printed —
or a fresh hotspot table when the baseline carries no profiles.
A gated series with nothing to compare against (a baseline predating a
section, an empty fresh section) fails the gate like a regression, so a
pass can never mean "nothing was gated".

The out-of-core scale sweep is gated for *sublinearity*: for every
algorithm whose sweep series spans at least a 100x edge-count ratio,
the traced peak memory of the largest decade must stay within
``sqrt(edge ratio)`` of the smallest decade's (with a 1 MiB floor so
timer-scale allocations don't trip it). A pipeline whose peak memory
grew linearly with the stream would blow this bound by 10x at a 100x
span. The check runs against both the fresh sweep (fast algorithms,
up to 10^6 edges) and the committed latest report, whose full-sweep
series carries the 10^7 decade.

Opt-in from pytest via the ``perf`` marker::

    PYTHONPATH=src python -m pytest -m perf tests/test_perf_gate.py

Usage::

    python scripts/check_perf.py [--baseline FILE] [--threshold 2.0]
"""

from __future__ import annotations

import argparse
import math
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_perf import (  # noqa: E402
    SCALE_SWEEP_QUICK_ALGOS,
    latest_report,
    load_series,
    run_bench,
)


#: Kernels faster than this are dominated by call overhead and timer
#: noise; the ratio test is applied against at least this much time.
MIN_GATED_SECONDS = 0.01

#: Disabled-hook budget: running with ``--obs-level off`` (the default)
#: may cost at most this fraction over a hook-free build.
OBS_OFF_MAX_OVERHEAD = 0.03
#: ...unless the absolute delta is below this floor, where the timer
#: cannot resolve the difference anyway.
OBS_OFF_ABS_FLOOR_SECONDS = 0.01

#: Disabled ``profile_scope`` budget: the profiling hooks share the
#: obs hooks' off-path bar — at most max(3%, 10ms) over a hook-free
#: build, so they can live on the hot paths unconditionally.
PROFILING_OFF_MAX_OVERHEAD = OBS_OFF_MAX_OVERHEAD
PROFILING_OFF_ABS_FLOOR_SECONDS = OBS_OFF_ABS_FLOOR_SECONDS

#: Kernel hotspot diffs printed per gate failure (the rest are listed
#: by name only — a broad regression has one cause, not thirty).
MAX_HOTSPOT_DIFFS = 3

#: Comm-codec budget: a codec is modelled (ratio arithmetic, never a
#: real quantisation pass), so enabling one may add at most this
#: fraction of bookkeeping over the null-codec cell...
COMM_CODEC_MAX_OVERHEAD = 0.25
#: ...with the same timer-resolution escape hatch as the obs gate.
COMM_CODEC_ABS_FLOOR_SECONDS = 0.01

#: The out-of-core sweep is only gate-worthy across at least this
#: edge-count ratio between its smallest and largest decades.
SWEEP_MIN_SPAN = 100
#: Traced peaks below this are allocator noise; the sublinearity
#: ratio is taken against at least this much memory.
SWEEP_PEAK_FLOOR_BYTES = 1 << 20


def check_scale_sweep(report: dict, label: str) -> list:
    """Sublinearity check: regressions for the ``scale_sweep`` section.

    For each algorithm (and the end-to-end ``pipeline`` entry)
    spanning at least :data:`SWEEP_MIN_SPAN` in edges, the largest
    decade's traced peak must not exceed ``sqrt(edge ratio)`` times
    the smallest decade's. Linear growth fails by a wide margin;
    chunk-bounded growth passes by one.
    """
    regressions = []
    sweep = report.get("scale_sweep")
    if not sweep or not sweep.get("series"):
        return [f"{label}: no scale_sweep series to gate"]
    peaks: dict = {}
    for entry in sweep["series"]:
        records = dict(entry.get("algorithms", {}))
        if entry.get("pipeline"):
            records["pipeline"] = entry["pipeline"]
        for name, record in records.items():
            peaks.setdefault(name, []).append(
                (entry["edges"], record["memory"]["traced_peak_bytes"])
            )
    gated = 0
    for name, points in sorted(peaks.items()):
        points.sort()
        lo_edges, lo_peak = points[0]
        hi_edges, hi_peak = points[-1]
        if hi_edges < SWEEP_MIN_SPAN * lo_edges:
            continue
        gated += 1
        allowed = math.sqrt(hi_edges / lo_edges) * max(
            lo_peak, SWEEP_PEAK_FLOOR_BYTES
        )
        if hi_peak > allowed:
            regressions.append(
                f"{label}/{name}: peak memory not sublinear in edges: "
                f"{lo_edges:,} edges -> {lo_peak / 2**20:.1f} MiB but "
                f"{hi_edges:,} edges -> {hi_peak / 2**20:.1f} MiB "
                f"(allowed {allowed / 2**20:.1f} MiB)"
            )
    if not gated:
        regressions.append(
            f"{label}: scale sweep spans less than "
            f"{SWEEP_MIN_SPAN}x in edges; nothing to gate"
        )
    return regressions


def missing_sections(baseline: dict, fresh: dict) -> list:
    """Gated series with no data to gate against, as failures.

    A baseline that predates a gated section (or an empty fresh
    section) means that series is not being compared at all; that
    fails the gate rather than passing it by default.
    """
    missing = []
    if not baseline.get("kernels"):
        missing.append("kernels: baseline has no kernel timings")
    if not baseline.get("sampling"):
        missing.append("sampling: baseline has no sampling benchmark")
    if not baseline.get("distdgl_cell"):
        missing.append("distdgl_cell: baseline has no DistDGL cell timings")
    for section in (
        "obs_overhead", "profiling_overhead", "comm_codecs"
    ):
        if not fresh.get(section):
            missing.append(f"{section}: fresh run produced no data")
    return missing


def compare(
    baseline: dict,
    fresh: dict,
    threshold: float,
    floor: float = MIN_GATED_SECONDS,
    regressed_kernels: list = None,
) -> list:
    """Return a list of human-readable regression descriptions.

    ``regressed_kernels``, when given, collects the ``GRAPH/name``
    keys of kernels that tripped the ratio gate, so the caller can
    print function-level hotspot diffs for them.
    """
    regressions = []

    def check(name: str, old: float, new: float) -> bool:
        if new > threshold * max(old, floor):
            regressions.append(
                f"{name}: {old:.4f}s -> {new:.4f}s "
                f"({new / old:.1f}x > {threshold:.1f}x threshold)"
            )
            return True
        return False

    for name, entry in baseline.get("kernels", {}).items():
        fresh_entry = fresh["kernels"].get(name)
        if fresh_entry is None:
            regressions.append(f"{name}: kernel missing from fresh run")
            continue
        if check(name, entry["seconds"], fresh_entry["seconds"]):
            if regressed_kernels is not None:
                regressed_kernels.append(name)
    base_sampling = baseline.get("sampling")
    if base_sampling:
        check(
            "sampling",
            base_sampling["seconds"],
            fresh["sampling"]["seconds"],
        )
    base_cell = baseline.get("distdgl_cell")
    if base_cell:
        # Recording a cell's sampling traces, and pricing from them:
        # the second creeping up to the first means replay broke.
        for series in ("cold_seconds", "warm_seconds"):
            check(
                f"distdgl_cell/{series}",
                base_cell[series],
                fresh["distdgl_cell"][series],
            )
    overhead = fresh.get("obs_overhead")
    if overhead:
        plain = overhead["plain_seconds"]
        delta = overhead["off_seconds"] - plain
        budget = max(
            OBS_OFF_MAX_OVERHEAD * plain, OBS_OFF_ABS_FLOOR_SECONDS
        )
        if delta > budget:
            regressions.append(
                f"obs_overhead: disabled hooks cost "
                f"{delta:.4f}s over the {plain:.4f}s plain run "
                f"({delta / plain * 100:.1f}% > "
                f"{OBS_OFF_MAX_OVERHEAD * 100:.0f}% budget)"
            )
    profiling = fresh.get("profiling_overhead")
    if profiling:
        plain = profiling["plain_seconds"]
        delta = profiling["off_seconds"] - plain
        budget = max(
            PROFILING_OFF_MAX_OVERHEAD * plain,
            PROFILING_OFF_ABS_FLOOR_SECONDS,
        )
        if delta > budget:
            regressions.append(
                f"profiling_overhead: disabled profile_scope hooks "
                f"cost {delta:.4f}s over the {plain:.4f}s plain run "
                f"({delta / plain * 100:.1f}% > "
                f"{PROFILING_OFF_MAX_OVERHEAD * 100:.0f}% budget)"
            )
    # Gated on the fresh run only, so committed baselines that predate
    # the comm_codecs section still gate cleanly.
    codecs = fresh.get("comm_codecs")
    if codecs:
        base = codecs["seconds"]["none"]
        budget = max(
            COMM_CODEC_MAX_OVERHEAD * base, COMM_CODEC_ABS_FLOOR_SECONDS
        )
        for name, seconds in sorted(codecs["seconds"].items()):
            if name == "none":
                continue
            delta = seconds - base
            if delta > budget:
                regressions.append(
                    f"comm_codecs/{name}: codec bookkeeping costs "
                    f"{delta:.4f}s over the {base:.4f}s null-codec run "
                    f"({delta / base * 100:.1f}% > "
                    f"{COMM_CODEC_MAX_OVERHEAD * 100:.0f}% budget)"
                )
    return regressions


def print_hotspot_diffs(baseline: dict, regressed_kernels: list) -> None:
    """Function-level triage for kernels that tripped the gate.

    Captures a fresh profile of each regressed kernel and diffs it
    against the baseline's embedded ``profiles`` section (written by
    ``bench_perf.py --profile``); a baseline without profiles still
    gets a fresh hotspot table, so the failure is never opaque.
    """
    if not regressed_kernels:
        return
    from bench_perf import profile_kernel

    from repro.obs.profiling import Profile, profile_diff, render_diff

    base_profiles = baseline.get("profiles") or {}
    for kernel in regressed_kernels[:MAX_HOTSPOT_DIFFS]:
        try:
            fresh_profile = profile_kernel(kernel)
        except Exception as error:  # noqa: BLE001 - triage must not mask
            print(f"\ncould not profile {kernel}: {error}")
            continue
        section = base_profiles.get(kernel)
        if section:
            diff = profile_diff(
                Profile.from_dict(section), fresh_profile
            )
            print(f"\nhotspot diff for {kernel} (baseline -> fresh):")
            print(render_diff(diff))
        else:
            print(
                f"\nno baseline profile for {kernel} (rerun "
                f"bench_perf.py --profile); fresh hotspots:"
            )
            print(fresh_profile.top_table(10))
    rest = len(regressed_kernels) - MAX_HOTSPOT_DIFFS
    if rest > 0:
        print(f"\n({rest} more regressed kernels not profiled)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=os.path.join(_REPO_ROOT, "BENCH_partitioning.json"),
    )
    parser.add_argument("--threshold", type=float, default=2.0)
    args = parser.parse_args(argv)

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run scripts/bench_perf.py")
        return 1
    baseline = latest_report(load_series(args.baseline))
    if not baseline:
        print(f"{args.baseline}: empty history series; nothing to gate on")
        return 1

    fresh = run_bench(
        repeats=1, scale_sweep_algos=SCALE_SWEEP_QUICK_ALGOS
    )
    regressed_kernels: list = []
    regressions = compare(
        baseline, fresh, args.threshold,
        regressed_kernels=regressed_kernels,
    )
    regressions += check_scale_sweep(fresh, "fresh")
    regressions += check_scale_sweep(baseline, "baseline")
    regressions += missing_sections(baseline, fresh)

    if regressions:
        print("perf regressions detected:")
        for line in regressions:
            print(f"  {line}")
        print_hotspot_diffs(baseline, regressed_kernels)
        return 1
    print(
        f"perf gate passed: {len(baseline.get('kernels', {}))} kernels "
        f"within {args.threshold:.1f}x of baseline; out-of-core peak "
        f"memory sublinear across the scale sweep"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
