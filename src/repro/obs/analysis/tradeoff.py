"""Traffic-vs-accuracy tradeoff extraction for comm sweeps.

A communication-reduction sweep (``docs/communication.md``) runs the
same grid once per :class:`~repro.experiments.CommConfig`; every record
then carries wire traffic *and* a deterministic accuracy-proxy error.
This module folds those records into per-partitioner tradeoff points
and marks the Pareto frontier — the configs for which no other config
of the same engine+partitioner moves fewer bytes at no worse accuracy.

Everything is computed from record fields alone (no snapshots, no
wall clock), so serial and parallel sweeps yield byte-identical
tradeoff tables.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

__all__ = ["traffic_accuracy_tradeoff"]


def _comm_label(record) -> str:
    comm = getattr(record, "comm_config", None)
    return comm.label() if comm is not None else "baseline"


def _dominates(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """True when ``a`` is at least as good as ``b`` on both axes and
    strictly better on one (minimizing wire bytes and proxy error)."""
    wire_a, wire_b = a["wire_bytes"], b["wire_bytes"]
    err_a, err_b = a["accuracy_proxy_error"], b["accuracy_proxy_error"]
    return (
        wire_a <= wire_b
        and err_a <= err_b
        and (wire_a < wire_b or err_a < err_b)
    )


def traffic_accuracy_tradeoff(
    records: Sequence,
) -> Dict[str, Dict[str, List[Dict[str, object]]]]:
    """Per-engine, per-partitioner traffic-vs-accuracy points.

    ``{engine: {partitioner: [point, ...]}}`` where each point is one
    comm configuration aggregated over that partitioner's cells:
    mean wire bytes per epoch, mean bytes saved per epoch, the saved
    fraction, mean codec seconds and the worst accuracy-proxy error,
    plus ``on_frontier`` marking Pareto-optimal configs. Points are
    sorted by descending wire bytes (the raw baseline first), so the
    list reads as a frontier walk. Empty when no record carries a
    ``comm_config`` — a pre-comm sweep produces no tradeoff section.
    """
    groups: Dict[tuple, Dict[str, object]] = {}
    swept = False
    for record in records:
        comm = getattr(record, "comm_config", None)
        if comm is not None:
            swept = True
        key = (record.engine, record.partitioner, _comm_label(record))
        entry = groups.setdefault(
            key,
            {
                "cells": 0,
                "wire": 0.0,
                "saved": 0.0,
                "codec": 0.0,
                "error": 0.0,
                "comm": comm,
            },
        )
        entry["cells"] += 1
        entry["wire"] += float(record.network_bytes)
        entry["saved"] += float(
            getattr(record, "traffic_saved_bytes", 0.0)
        )
        entry["codec"] += float(getattr(record, "codec_seconds", 0.0))
        entry["error"] = max(
            entry["error"],
            float(getattr(record, "accuracy_proxy_error", 0.0)),
        )

    if not swept:
        return {}

    result: Dict[str, Dict[str, List[Dict[str, object]]]] = {}
    for engine, partitioner, label in sorted(groups):
        entry = groups[(engine, partitioner, label)]
        cells = entry["cells"]
        wire = entry["wire"] / cells
        saved = entry["saved"] / cells
        raw = wire + saved
        comm = entry["comm"]
        point = {
            "comm": label,
            "compression": comm.compression if comm else "none",
            "refresh_interval": comm.refresh_interval if comm else 1,
            "cache_fraction": comm.cache_fraction if comm else 0.0,
            "cells": cells,
            "wire_bytes": wire,
            "saved_bytes": saved,
            "saved_fraction": saved / raw if raw else 0.0,
            "codec_seconds": entry["codec"] / cells,
            "accuracy_proxy_error": entry["error"],
        }
        result.setdefault(engine, {}).setdefault(
            partitioner, []
        ).append(point)

    for engine in result:
        for partitioner, points in result[engine].items():
            for point in points:
                point["on_frontier"] = not any(
                    _dominates(other, point)
                    for other in points
                    if other is not point
                )
            points.sort(
                key=lambda p: (-p["wire_bytes"], p["comm"])
            )
    return result
