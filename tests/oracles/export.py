"""The ``dataclasses.asdict`` record encoder, verbatim.

:func:`oracle_records_to_json` is ``records_to_json`` exactly as it stood
before the record codec was split into ``record_to_dict`` /
``record_from_dict`` with a shallow field walk. Saved sweeps and the
serve daemon's ``records.json`` were written by this function, so the
codec is pinned to it byte for byte (see
``tests/oracles/test_export_identity.py``). Do not tidy the body.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Sequence

from repro.experiments.export import _record_kind


def oracle_records_to_json(records: Sequence) -> str:
    """Serialize records (of either engine) to a JSON string."""
    payload = []
    for record in records:
        data = dataclasses.asdict(record)
        data["params"] = dataclasses.asdict(record.params)
        if record.fault_config is not None:
            data["fault_config"] = dataclasses.asdict(record.fault_config)
        if record.comm_config is not None:
            data["comm_config"] = dataclasses.asdict(record.comm_config)
        if data.get("memory_per_machine") is not None:
            data["memory_per_machine"] = [
                float(x) for x in data["memory_per_machine"]
            ]
        payload.append({"kind": _record_kind(record), "data": data})
    return json.dumps(payload, indent=2)
