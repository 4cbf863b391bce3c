"""Byte-identity of the record codec against the ``asdict`` encoder.

``records_to_json`` maps ``record_to_dict`` over the records, a shallow
walk of each record and its config fields. Saved sweeps, the serve
daemon's ``records.json`` and the live bus all depend on it writing
exactly what :func:`tests.oracles.export.oracle_records_to_json` wrote.
The matrix is engine x faults x comm x obs level over two partitioners
and two machine counts: 64 records, every optional field both set and
unset.
"""

from __future__ import annotations

import itertools

import pytest

from repro import obs
from repro.experiments import (
    ENGINES,
    CommConfig,
    FaultConfig,
    TrainingParams,
    load_records,
    record_from_dict,
    record_to_dict,
    records_to_json,
    save_records,
)

from .export import oracle_records_to_json

PARAMS = TrainingParams(feature_size=16, hidden_dim=16, num_layers=2)
FAULTS = [None, FaultConfig(crash_rate=0.3, loss_rate=0.2, seed=3)]
COMMS = [None, CommConfig(compression="int8", cache_fraction=0.2)]
PARTITIONERS = {"distgnn": ["random", "hdrf"], "distdgl": ["random", "ldg"]}


@pytest.fixture(scope="module")
def matrix_records(tiny_or, tiny_or_split):
    records = []
    for engine, fault, comm, level in itertools.product(
        ENGINES, FAULTS, COMMS, ["off", "metrics"]
    ):
        extra = {"split": tiny_or_split} if engine == "distdgl" else {}
        obs.configure(level)
        try:
            for partitioner, k in itertools.product(
                PARTITIONERS[engine], [2, 4]
            ):
                records.append(ENGINES[engine].run(
                    tiny_or, partitioner, k, PARAMS, seed=0,
                    fault_config=fault, comm_config=comm,
                    num_epochs=2 if fault else 1, **extra,
                ))
        finally:
            obs.reset()
            obs.disable()
    return records


def test_matrix_covers_every_optional_field(matrix_records):
    assert len(matrix_records) == 64
    for name in ("fault_config", "comm_config", "obs_metrics"):
        values = [getattr(r, name) is None for r in matrix_records]
        assert any(values) and not all(values), name


def test_records_to_json_matches_asdict_oracle(matrix_records):
    assert records_to_json(matrix_records) == oracle_records_to_json(
        matrix_records
    )


def test_empty_list_matches_oracle():
    assert records_to_json([]) == oracle_records_to_json([])


def test_codec_round_trips(matrix_records, tmp_path):
    path = tmp_path / "records.json"
    save_records(matrix_records, path)
    loaded = load_records(path)
    assert loaded == matrix_records
    assert [record_from_dict(record_to_dict(r)) for r in loaded] == loaded
    assert records_to_json(loaded) == records_to_json(matrix_records)


def test_record_to_dict_leaves_record_unchanged(matrix_records):
    record = matrix_records[-1]
    before = oracle_records_to_json([record])
    entry = record_to_dict(record)
    assert entry["kind"] == record.engine
    assert oracle_records_to_json([record]) == before
