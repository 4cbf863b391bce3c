"""The benchmark of this repo: five workloads, end to end and per layer.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace 0|1] [--quick] [--out FILE]

Every workload pass runs in fresh interpreters (``bench/worker.py``)
with ``PYTHONPATH=src`` and BLAS/OpenMP pinned to one thread: first
untraced for the end-to-end metrics (a timed worker, two more set-up
workers and a memory worker), then traced for the per-layer metrics
(``--trace`` selects one of the two). Every metric declared in
``BENCHMARK.json`` is printed by name with its unit; the exit code is
non-zero if any correctness check failed. The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; metric
keys carry a ``<workload>/`` prefix unless exactly one workload pass
was run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Worker environment (recorded in the ``--out`` file).
WORKER_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Extra environment of the memory pass: glibc malloc's mmap threshold
#: pinned at its initial 128 KiB, so every big array is its own mapping
#: and resident memory follows live memory. With the default (a dynamic
#: threshold and heap trimming) ``stream_outofcore`` peaks at 75 or at
#: 88-100 MiB depending on things as small as the length of PYTHONPATH;
#: pinning it costs that workload a quarter of its throughput in page
#: faults, which is why the timed passes do not run under it.
MEMORY_PASS_ENV = {"MALLOC_MMAP_THRESHOLD_": str(128 << 10)}
#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The driver allows a run 180 s.
WORKER_TIMEOUT_S = 170.0


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def spawn_worker(args, workload: str, pass_: str):
    """Run one worker pass to completion; its result dict, or None."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    env.update(WORKER_ENV)
    if pass_ == "memory":
        env.update(MEMORY_PASS_ENV)
    command = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--pass", pass_,
        "--sizes", "quick" if args.quick else "full",
        "--spawned-at", repr(time.monotonic()),
    ]
    # Its own process group, so that a timeout also stops the pool
    # workers or the daemon the worker started.
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"{workload}: {pass_} pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not stdout.strip():
        print(f"{workload}: {pass_} pass exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def run_pass(args, spec, workload: str, trace: int) -> Optional[Dict[str, object]]:
    """One workload pass; metrics checked against ``BENCHMARK.json``."""
    result = spawn_worker(args, workload, "traced" if trace else "untraced")
    if result is None:
        return None
    metrics = result["metrics"]
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        # A layer this workload does not exercise reads 0.
        metrics = {
            **{entry["name"]: 0 for entry in declared}, **metrics
        }
    else:
        repeats = 1 if args.quick else SETUP_REPEATS
        setups = [metrics["setup_s"]]
        for _ in range(repeats - 1):
            extra = spawn_worker(args, workload, "setup")
            if extra is None:
                return None
            setups.append(extra["metrics"]["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
        memory = spawn_worker(args, workload, "memory")
        if memory is None:
            return None
        metrics.update(memory["metrics"])
        for key in ("attempted", "failed", "failures"):
            result[key] += memory[key]
    names = {entry["name"] for entry in declared}
    if set(metrics) != names:
        result["failed"] += 1
        result["attempted"] += 1
        result["failures"].append(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ names)}"
        )
    units = {entry["name"]: entry["unit"] for entry in declared}
    result["metrics"] = {
        name: {"value": value, "unit": units.get(name, "?")}
        for name, value in metrics.items()
    }
    return result


def print_pass(workload: str, trace: int, result: Dict[str, object]) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {workload}: {kind}  info={json.dumps(result['info'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  ops_attempted={result['attempted']} ops_failed={result['failed']}")
    for message in result["failures"]:
        print(f"  FAILED: {message}")
    sys.stdout.flush()


def main() -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: {SRC}/repro not found; nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the untraced timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced pass only, 1: traced pass only "
                             "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="self-test sizes, one round, one set-up")
    parser.add_argument("--out", help="write the full result JSON here")
    args = parser.parse_args()
    if args.quick:
        args.seconds = 0.0
    workloads = args.workload or names
    passes = [0, 1] if args.trace is None else [args.trace]

    results: Dict[str, Dict[str, object]] = {}
    flat: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    crashed: List[str] = []
    single = len(workloads) == 1 and len(passes) == 1
    for workload in workloads:
        for trace in passes:
            result = run_pass(args, spec, workload, trace)
            if result is None:
                crashed.append(f"{workload} trace={trace}")
                continue
            print_pass(workload, trace, result)
            results.setdefault(workload, {})[
                "per_layer" if trace else "end_to_end"
            ] = result
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if single else workload + "/"
            for name, metric in result["metrics"].items():
                flat[prefix + name] = metric
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({
                "seed": args.seed,
                "seconds": args.seconds,
                "sizes": "quick" if args.quick else "full",
                "environment": {
                    "python": platform.python_version(),
                    "platform": platform.platform(),
                    "cpus": os.cpu_count(),
                    "worker_env": WORKER_ENV,
                    "memory_pass_env": MEMORY_PASS_ENV,
                },
                "results": results,
            }, handle, indent=2)
    if crashed:
        print(f"run.py: no result from {crashed}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": flat,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
