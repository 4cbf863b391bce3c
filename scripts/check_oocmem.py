"""Bounded-memory gate for the out-of-core partitioning pipeline.

Runs the chunk-store pipeline on a 10^6-edge graph — chunk-native RMAT
generation → spool, then over that one spool streaming HDRF, DBH and
2PS-L shuffles and an LDG ``partition_stream`` — and fails (exit 1)
when any stage's peak memory exceeds explicit caps, or (at the default
``--edges``) when the bytes it wrote move from :data:`EXPECTED_DIGEST`:

* ``--max-traced-mb`` (default 96) bounds the Python-heap high-water
  mark measured by ``tracemalloc``. The measured peaks are 40–51 MiB
  for the shuffles, dominated by the k=32 bucket-writer buffers
  (32 × 1 MiB) plus the partitioner's state — HDRF's O(num_vertices · k)
  table, 2PS-L's O(num_vertices) union-find and cluster arrays — and
  18 MiB for LDG's O(num_vertices) state around a memmapped CSR. A full
  in-memory pass over the same stream would need the 10^6 × 2 int64
  edge array *per copy held*, and no stage's peak may depend on the
  edge count.
* ``--max-rss-mb`` (default 512) sanity-bounds the process RSS
  high-water mark. RSS includes the interpreter, numpy, and (on Linux)
  any page-cache-resident memmap pages, so the cap is loose; it exists
  to catch a pipeline that silently materialises the stream.

CI runs this as the bounded-memory smoke job::

    PYTHONPATH=src python scripts/check_oocmem.py

Scale or caps can be overridden for local experiments
(``--edges 10000000 --max-traced-mb 128``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
import time

from repro.graph import rmat_edge_chunks, spool_edges
from repro.obs import PeakMemoryTracker
from repro.partitioning import (
    DbhPartitioner,
    HdrfPartitioner,
    LdgPartitioner,
    TwoPsLPartitioner,
    shuffle_stream,
)

#: Fixed vertex count (2^18) — matches the bench scale sweep.
RMAT_SCALE = 18
#: Spool chunk size in rows; the quantity the peak memory is bounded by.
CHUNK_ROWS = 1 << 16
#: Machine count (the paper's largest).
NUM_PARTITIONS = 32
#: Default stream length; the output digest is pinned at this size only.
DEFAULT_EDGES = 10**6
#: sha1 of the default run's output (see :func:`run_pipeline`).
EXPECTED_DIGEST = "22a978b10c865c5b205cd40669c9789ca07032a9"


def run_pipeline(num_edges: int, directory: str) -> tuple:
    """Generate → spool, then each consumer; one summary per stage.

    Also returns the sha1 over every bucket fingerprint of the three
    shuffles, in order, and LDG's assignment bytes.
    """
    summaries = []
    digest = hashlib.sha1()

    def measured(name, stage):
        start = time.perf_counter()
        with PeakMemoryTracker() as tracker:
            result = stage()
        summaries.append({
            "stage": name,
            "seconds": time.perf_counter() - start,
            **tracker.as_dict(),
        })
        return result

    reader = measured("spool", lambda: spool_edges(
        rmat_edge_chunks(RMAT_SCALE, num_edges, seed=42),
        os.path.join(directory, "spool"),
        chunk_size=CHUNK_ROWS,
        num_vertices=1 << RMAT_SCALE,
        directed=True,
    ))
    for partitioner in (HdrfPartitioner(), DbhPartitioner(), TwoPsLPartitioner()):
        result = measured(f"{partitioner.name} shuffle", lambda: shuffle_stream(
            reader, partitioner, NUM_PARTITIONS,
            os.path.join(directory, "buckets-" + partitioner.name), seed=0,
        ))
        if int(result.edge_counts.sum()) != num_edges:
            raise AssertionError(
                f"{partitioner.name} shuffle lost edges: buckets hold "
                f"{int(result.edge_counts.sum())} of {num_edges}"
            )
        for p in range(NUM_PARTITIONS):
            digest.update(result.bucket(p).fingerprint.encode())
    partition = measured("LDG partition_stream", lambda: (
        LdgPartitioner().partition_stream(reader, NUM_PARTITIONS, seed=0)
    ))
    if int(partition.vertex_counts().sum()) != reader.num_vertices:
        raise AssertionError("LDG did not place every vertex")
    digest.update(partition.assignment.tobytes())
    return summaries, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--edges", type=int, default=DEFAULT_EDGES)
    parser.add_argument("--max-traced-mb", type=float, default=96.0)
    parser.add_argument("--max-rss-mb", type=float, default=512.0)
    parser.add_argument(
        "--workdir", default=None,
        help="scratch directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-oocmem-")
    try:
        summaries, digest = run_pipeline(args.edges, workdir)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    seconds = sum(summary["seconds"] for summary in summaries)
    print(
        f"out-of-core pipeline: {args.edges:,} edges in {seconds:.1f}s "
        f"({len(summaries) - 1} consumers of one spool)"
    )
    print(f"  output sha1 {digest}")
    failures = []
    if args.edges == DEFAULT_EDGES and digest != EXPECTED_DIGEST:
        failures.append(f"output sha1 is not the pinned {EXPECTED_DIGEST}")
    for summary in summaries:
        traced_mb = summary["traced_peak_bytes"] / 2**20
        rss_mb = (summary["rss_peak_bytes"] or 0) / 2**20
        print(
            f"  {summary['stage']}: {summary['seconds']:.1f}s, "
            f"{traced_mb:.1f} MiB traced (cap {args.max_traced_mb:.0f}), "
            f"{rss_mb:.1f} MiB RSS (cap {args.max_rss_mb:.0f}, "
            f"resettable={summary['rss_resettable']})"
        )
        if traced_mb > args.max_traced_mb:
            failures.append(
                f"{summary['stage']}: traced peak {traced_mb:.1f} MiB "
                f"exceeds the {args.max_traced_mb:.0f} MiB cap"
            )
        if summary["rss_peak_bytes"] is not None and rss_mb > args.max_rss_mb:
            failures.append(
                f"{summary['stage']}: RSS peak {rss_mb:.1f} MiB exceeds "
                f"the {args.max_rss_mb:.0f} MiB cap"
            )
    if failures:
        print("bounded-memory gate FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    print("bounded-memory gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
