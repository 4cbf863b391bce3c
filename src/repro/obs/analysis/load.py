"""Flexible loading of run telemetry artifacts.

A "run" leaves up to three kinds of artifact behind: sweep record JSON
(``save_records``), metric snapshot JSON (``obs.save_metrics``), and
JSONL traces (``JsonlSink`` / ``--obs-out``, whose final record is a
metrics snapshot). :func:`load_run_inputs` sniffs any mix of those by
content, folds them into one :class:`RunData`, and is what the CLI
``repro obs analyze | diff`` commands feed the analyzers
with.

Only basenames are recorded into reports — never absolute paths — so
analyses of identical telemetry written to different directories stay
byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Union

from ...experiments.export import load_records
from ..sink import read_jsonl

__all__ = ["RunData", "load_run_inputs"]

PathLike = Union[str, "os.PathLike[str]"]


@dataclass
class RunData:
    """Everything loaded for one run: records, metrics, trace events."""

    label: str = ""
    records: List = field(default_factory=list)
    metrics: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    #: JSONL lines skipped as truncated/corrupt while loading traces.
    skipped_lines: int = 0

    def source_dict(self) -> Dict[str, object]:
        """Summary of what was loaded (embedded in reports)."""
        return {
            "label": self.label,
            "num_records": len(self.records),
            "num_metrics": len(self.metrics),
            "num_events": len(self.events),
            "skipped_lines": self.skipped_lines,
        }


def _looks_like_records(payload: object) -> bool:
    """True for ``save_records`` output: [{"kind": ..., "data": ...}]."""
    return (
        isinstance(payload, list)
        and bool(payload)
        and all(
            isinstance(entry, dict) and set(entry) == {"kind", "data"}
            for entry in payload
        )
    )


def _looks_like_snapshot(payload: object) -> bool:
    """True for ``obs.snapshot()`` output: [{"name","kind","labels",...}]."""
    return (
        isinstance(payload, list)
        and bool(payload)
        and all(
            isinstance(entry, dict)
            and "name" in entry
            and "kind" in entry
            and "labels" in entry
            for entry in payload
        )
    )


def _load_json_file(run: RunData, path: str) -> None:
    """Classify one ``.json`` artifact by content and absorb it."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if _looks_like_records(payload):
        run.records.extend(load_records(path))
    elif _looks_like_snapshot(payload):
        run.metrics.extend(payload)
    elif isinstance(payload, list) and not payload:
        pass  # an empty sweep — nothing to absorb
    else:
        raise ValueError(
            f"{path}: not a sweep record file or a metrics snapshot "
            "(expected save_records or obs.save_metrics output)"
        )


def _load_jsonl_file(run: RunData, path: str) -> None:
    """Absorb a JSONL trace: events plus any embedded metrics snapshot."""
    events, skipped = read_jsonl(path, return_skipped=True)
    run.skipped_lines += skipped
    for event in events:
        if event.get("kind") == "metrics-snapshot":
            run.metrics.extend(event.get("metrics", []))
        else:
            run.events.append(event)


def load_run_inputs(
    paths: Sequence[PathLike], label: str = ""
) -> RunData:
    """Load any mix of record/snapshot/trace artifacts into a RunData.

    ``.jsonl`` files are read as traces (tolerating a truncated final
    line; the skip count is carried on the result); ``.json`` files are
    classified by content. ``label`` defaults to the sorted basenames.
    """
    run = RunData()
    names = []
    for path in paths:
        path = os.fspath(path)
        names.append(os.path.basename(path))
        if path.endswith(".jsonl"):
            _load_jsonl_file(run, path)
        else:
            _load_json_file(run, path)
    run.label = label or "+".join(sorted(names))
    return run
