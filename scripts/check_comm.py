"""Comm-axis smoke for CI (docs/communication.md).

Runs a tiny codecs x refresh-interval sweep through
``python -m repro sweep`` and fails (exit 1) unless the exported records
show what the compression model promises:

1. within every grid cell, wire traffic shrinks strictly monotonically
   along the codec ladder (none > fp16 > int8 > topk);
2. the bookkeeping balances — ``network_bytes + traffic_saved_bytes``
   is the same raw volume for every codec of a cell (per-epoch means);
3. the baseline codec saves nothing and reports zero accuracy-proxy
   error, every real codec reports both;
4. DistGNN's ``refresh_interval=2`` cells move strictly less than
   their r=1 counterparts (stale epochs skip halo syncs).

Usage::

    PYTHONPATH=src python scripts/check_comm.py [--out DIR]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

CODEC_LADDER = ("none", "fp16", "int8", "topk")


def run_sweep(out_dir: Path) -> None:
    command = [
        sys.executable, "-m", "repro", "sweep", "--quick",
        "--graphs", "OR", "--machines", "2", "--scale", "tiny",
        "--epochs", "2", "--compression", ",".join(CODEC_LADDER),
        "--refresh-interval", "1,2", "--out", str(out_dir),
    ]
    subprocess.run(command, check=True)


def cell_key(record) -> tuple:
    comm = record.comm_config
    return (
        record.partitioner, record.num_machines, record.params.label(),
        comm.refresh_interval if comm else 1,
    )


def check_records(path: Path, check_refresh: bool) -> int:
    from repro.experiments import load_records

    records = load_records(path)
    cells: dict = {}
    for record in records:
        comm = record.comm_config
        codec = comm.compression if comm else "none"
        cells.setdefault(cell_key(record), {})[codec] = record

    failures = 0
    for key, by_codec in sorted(cells.items()):
        wire = [by_codec[name].network_bytes for name in CODEC_LADDER]
        if not all(a > b for a, b in zip(wire, wire[1:])):
            print(f"FAIL {path.name} {key}: wire not monotone {wire}")
            failures += 1
        raw = [
            by_codec[name].network_bytes
            + by_codec[name].traffic_saved_bytes
            for name in CODEC_LADDER
        ]
        if max(raw) - min(raw) > 1e-6 * max(raw):
            print(f"FAIL {path.name} {key}: raw volume drifts {raw}")
            failures += 1
        base = by_codec["none"]
        if base.traffic_saved_bytes > 0 and key[3] == 1:
            print(f"FAIL {path.name} {key}: baseline saved bytes")
            failures += 1
        for name in CODEC_LADDER[1:]:
            record = by_codec[name]
            if record.traffic_saved_bytes <= 0:
                print(f"FAIL {path.name} {key} {name}: nothing saved")
                failures += 1
            if record.accuracy_proxy_error <= 0:
                print(f"FAIL {path.name} {key} {name}: zero error")
                failures += 1

    if check_refresh:
        for key, by_codec in sorted(cells.items()):
            if key[3] != 2:
                continue
            fresh = cells[key[:3] + (1,)]
            for name, record in by_codec.items():
                if record.network_bytes >= fresh[name].network_bytes:
                    print(
                        f"FAIL {path.name} {key} {name}: r=2 moved "
                        "no less than r=1"
                    )
                    failures += 1

    print(
        f"{path.name}: {len(cells)} cells x {len(CODEC_LADDER)} codecs "
        f"checked, {failures} failure(s)"
    )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=None,
        help="sweep output dir (default: a fresh temp dir)",
    )
    args = parser.parse_args()

    if args.out is None:
        scratch = tempfile.TemporaryDirectory(prefix="comm-smoke-")
        out_dir = Path(scratch.name)
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    run_sweep(out_dir)
    failures = check_records(out_dir / "sweep_distgnn.json", True)
    failures += check_records(out_dir / "sweep_distdgl.json", False)
    if failures:
        print(f"comm smoke FAILED with {failures} failure(s)")
        return 1
    print("comm smoke ok: monotone traffic reduction, balanced books")
    return 0


if __name__ == "__main__":
    sys.exit(main())
