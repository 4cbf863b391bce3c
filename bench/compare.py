"""Compare two sets of benchmark results: ``compare.py A B``.

``A`` (the parent) and ``B`` (the change) are each a ``run.py --out``
file or a directory of them. One row per (end-to-end metric, workload):
both medians, the relative change (positive = worse), the bound from
``BENCHMARK.json`` and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread (quartile distance over median,
                 the wider side) exceeds the bound, unless every run of
                 B reads better than every run of A (then ``better``);
* ``better``     B improves by more than A's spread (needs at least two
                 runs a side: one pair cannot show a gain);
* ``same``       otherwise.

Exact-repeat per-layer metrics (simulated statistics and work counts)
must be identical in every run, of either side, that used the same
seed. Exit code 1 on any ``worse`` row or exact-repeat mismatch.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-layer metrics that depend only on the seed, never on the clock.
EXACT_REPEAT = (
    "serve.cells_computed",
    "serve.dedup_hits",
    "serve.admission_rejected",
    "graph.chunkstore.spool_edges",
    "partitioning.shuffle.bucket_bytes",
    "distgnn.epochs",
    "distdgl.steps",
)


def is_exact_repeat(name: str) -> bool:
    return (
        name.startswith("sim.") or name.endswith("_calls")
        or name in EXACT_REPEAT
    )


def load_runs(path: str) -> List[Dict[str, object]]:
    files = (
        sorted(glob.glob(os.path.join(path, "*.json")))
        if os.path.isdir(path) else [path]
    )
    if not files:
        raise SystemExit(f"compare.py: no result files in {path}")
    runs = []
    for name in files:
        with open(name, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def values(runs, workload: str, section: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        result = run["results"].get(workload, {}).get(section)
        if result and metric in result["metrics"]:
            out.append(result["metrics"][metric]["value"])
    return out


def spread(samples: List[float]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def verdict(a: List[float], b: List[float], better: str, bound: float):
    """``(relative worsening of B's median, verdict)``."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = sign * (med_b - med_a) / med_a
    all_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    if max(spread(a), spread(b)) > bound:
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "worse"
    if min(len(a), len(b)) >= 2 and -change > spread(a):
        return change, "better"
    return change, "same"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    worse = mismatched = 0
    print(f"{'workload':<18}{'metric':<20}{'A':>14}{'B':>14}"
          f"{'change':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = values(runs_a, workload, "end_to_end", metric["name"])
            b = values(runs_b, workload, "end_to_end", metric["name"])
            if not a or not b:
                continue
            change, word = verdict(a, b, metric["better"], metric["bound"])
            worse += word == "worse"
            print(f"{workload:<18}{metric['name']:<20}"
                  f"{statistics.median(a):>14.6g}{statistics.median(b):>14.6g}"
                  f"{change:>+9.1%}{metric['bound']:>7.0%}  {word}")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["per_layer"]:
            if not is_exact_repeat(metric["name"]):
                continue
            for seed in sorted({run["seed"] for run in runs_a + runs_b}):
                same_seed = [r for r in runs_a + runs_b if r["seed"] == seed]
                seen = set(
                    values(same_seed, workload, "per_layer", metric["name"])
                )
                if len(seen) > 1:
                    mismatched += 1
                    print(f"MISMATCH seed {seed} {workload} "
                          f"{metric['name']}: {sorted(seen)}")
    print(f"{worse} worse rows, {mismatched} exact-repeat mismatches")
    return 1 if worse or mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
