"""JSON export/import of experiment records.

The benchmark harness regenerates everything from scratch, but sweeps are
expensive enough that users will want to persist records and post-process
them elsewhere (notebooks, plotting).

This module owns the record wire format. :func:`record_to_dict` /
:func:`record_from_dict` map one record to and from its entry
``{"kind": engine, "data": fields}``; saved sweep files, the serve
daemon's ``records.json`` and the live bus's ``record-done`` events all
carry exactly that entry.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Mapping, Sequence, Union

from .config import CommConfig, FaultConfig, TrainingParams
from .records import DistDglRecord, DistGnnRecord

__all__ = [
    "record_to_dict",
    "record_from_dict",
    "records_to_json",
    "save_records",
    "load_records",
]

Record = Union[DistGnnRecord, DistDglRecord]

_KINDS = {
    "distgnn": DistGnnRecord,
    "distdgl": DistDglRecord,
}

#: Config-valued record fields, encoded as nested objects.
_CONFIGS = {
    "params": TrainingParams,
    "fault_config": FaultConfig,
    "comm_config": CommConfig,
}


def _record_kind(record: Record) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(record, cls):
            return kind
    raise TypeError(f"unsupported record type {type(record).__name__}")


def _fields(obj) -> Dict[str, object]:
    """``obj``'s dataclass fields, in declaration order, one level deep."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def record_to_dict(record: Record) -> Dict[str, object]:
    """One record's export entry ``{"kind": ..., "data": ...}``.

    Encodes to the same JSON as ``dataclasses.asdict`` would, but walks
    only the record and its config fields: containers such as
    ``phase_seconds`` and ``obs_metrics`` are shared with the record,
    not copied, so treat the result as read-only.
    """
    kind = _record_kind(record)
    data = _fields(record)
    for name in _CONFIGS:
        if data[name] is not None:
            data[name] = _fields(data[name])
    if data.get("memory_per_machine") is not None:
        data["memory_per_machine"] = [
            float(x) for x in data["memory_per_machine"]
        ]
    return {"kind": kind, "data": data}


def record_from_dict(entry: Mapping[str, object]) -> Record:
    """Rebuild a record from its :func:`record_to_dict` entry."""
    kind = entry["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown record kind {kind!r}")
    data = dict(entry["data"])
    for name, cls in _CONFIGS.items():
        if data.get(name) is not None:
            data[name] = cls(**data[name])
    if data.get("memory_per_machine") is not None:
        data["memory_per_machine"] = tuple(data["memory_per_machine"])
    return _KINDS[kind](**data)


def records_to_json(records: Sequence[Record]) -> str:
    """Serialize records (of either engine) to a JSON string."""
    return json.dumps([record_to_dict(r) for r in records], indent=2)


def save_records(records: Sequence[Record], path: Union[str, os.PathLike]) -> None:
    """Write :func:`records_to_json` output to ``path``."""
    with open(path, "w") as handle:
        handle.write(records_to_json(records))


def load_records(path: Union[str, os.PathLike]) -> List[Record]:
    """Load records written by :func:`save_records`."""
    with open(path) as handle:
        return [record_from_dict(entry) for entry in json.load(handle)]
