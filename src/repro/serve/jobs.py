"""Sweep-job specs and job state for the serve daemon.

A *job* is one tenant's sweep request: an engine, a graph, the
partitioners and machine counts to cross, a parameter grid, and
scheduling metadata (priority, tenant). The scheduler expands a job
into *cells* — the same ``(machines, partitioner)`` units the batch
runners use — so a job's records are byte-identical to a serial
``repro sweep`` of the same spec.

Specs arrive as JSON over the HTTP API and are validated eagerly at
admission: a typo'd partitioner or engine fails the POST with a 400
instead of failing a worker minutes later.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments import (
    ENGINES as ENGINE_TABLE,
    CellSpec,
    CommConfig,
    FaultConfig,
    TrainingParams,
    parameter_grid,
    reduced_grid,
)
from ..graph import DATASET_KEYS, DATASET_SCALES
from ..obs.live import BusWriter, RuleSet
from ..obs.sink import JsonlSink

__all__ = [
    "ENGINES",
    "JOB_STATES",
    "SweepJobSpec",
    "Job",
]

#: The two training systems a job can target.
ENGINES = tuple(ENGINE_TABLE)

#: Every state a job moves through. ``aborted`` is the alert-rule
#: early stop; ``cancelled`` is an explicit DELETE.
JOB_STATES = (
    "queued", "running", "done", "failed", "cancelled", "aborted",
)

#: The one spec field whose JSON key is not its name.
_JSON_KEYS = {"machine_counts": "machines"}

#: Named parameter grids a spec may ask for instead of listing params.
_NAMED_GRIDS = ("reduced", "full")


def _params_from(entry: Mapping[str, object]) -> TrainingParams:
    """Build one TrainingParams from a JSON mapping (strict keys)."""
    known = {f.name for f in dataclasses.fields(TrainingParams)}
    unknown = set(entry) - known
    if unknown:
        raise ValueError(
            f"params entry has unknown keys: {sorted(unknown)}"
        )
    return TrainingParams(**entry)


@dataclass(frozen=True)
class SweepJobSpec:
    """One validated sweep request.

    ``params`` holds the job's parameter grid as a tuple of
    :class:`~repro.experiments.TrainingParams`; JSON specs may instead
    name a built-in grid (``"reduced"`` or ``"full"``). ``priority`` is
    higher-runs-first; ``tenant`` is the fair-share identity.
    """

    engine: str
    graph: str
    partitioners: Tuple[str, ...]
    machine_counts: Tuple[int, ...]
    params: Tuple[TrainingParams, ...]
    scale: str = "tiny"
    seed: int = 0
    num_epochs: int = 1
    priority: int = 0
    tenant: str = "default"
    fault: Optional[FaultConfig] = None
    comm: Optional[CommConfig] = None
    rules: Optional[Dict[str, object]] = field(
        default=None, hash=False, compare=False
    )
    abort_on: Optional[str] = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{ENGINES}"
            )
        if self.graph not in DATASET_KEYS:
            raise ValueError(
                f"unknown graph {self.graph!r}; expected one of "
                f"{tuple(DATASET_KEYS)}"
            )
        if self.scale not in DATASET_SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; expected one of "
                f"{DATASET_SCALES}"
            )
        valid = ENGINE_TABLE[self.engine].partitioner_names
        if not self.partitioners:
            raise ValueError("spec needs at least one partitioner")
        for name in self.partitioners:
            if name not in valid:
                raise ValueError(
                    f"unknown {self.engine} partitioner {name!r}; "
                    f"expected one of {valid}"
                )
        if not self.machine_counts:
            raise ValueError("spec needs at least one machine count")
        for k in self.machine_counts:
            if not isinstance(k, int) or k < 1:
                raise ValueError(
                    f"machine counts must be positive ints, got {k!r}"
                )
        if not self.params:
            raise ValueError("spec needs a non-empty parameter grid")
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.abort_on is not None:
            from ..obs.analysis.findings import SEVERITIES

            if self.abort_on not in SEVERITIES:
                raise ValueError(
                    f"unknown abort_on severity {self.abort_on!r}; "
                    f"expected one of {SEVERITIES}"
                )
            if self.rules is None:
                raise ValueError("abort_on needs rules")

    @property
    def num_cells(self) -> int:
        """Cells this spec expands into (machines x partitioners)."""
        return len(self.machine_counts) * len(self.partitioners)

    def cell_specs(self) -> List[CellSpec]:
        """The job's cells in submission order — the very specs
        :func:`~repro.experiments.run_grid` runs for the same sweep."""
        return CellSpec.expand(
            self.engine, self.partitioners, self.machine_counts,
            self.params, seed=self.seed, num_epochs=self.num_epochs,
            fault_config=self.fault, comm_config=self.comm,
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepJobSpec":
        """Validate and build a spec from its JSON form."""
        spec_fields = dataclasses.fields(cls)
        unknown = set(data) - {
            _JSON_KEYS.get(f.name, f.name) for f in spec_fields
        }
        if unknown:
            raise ValueError(
                f"job spec has unknown keys: {sorted(unknown)}"
            )
        raw_params = data.get("params", "reduced")
        if isinstance(raw_params, str):
            if raw_params not in _NAMED_GRIDS:
                raise ValueError(
                    f"unknown named grid {raw_params!r}; expected one "
                    f"of {_NAMED_GRIDS} or a list of params objects"
                )
            params = tuple(
                reduced_grid() if raw_params == "reduced"
                else parameter_grid()
            )
        elif isinstance(raw_params, Sequence):
            params = tuple(_params_from(p) for p in raw_params)
        else:
            raise ValueError("params must be a grid name or a list")
        fault = None
        if data.get("fault") is not None:
            fault_data = data["fault"]
            if not isinstance(fault_data, Mapping):
                raise ValueError("fault must be an object")
            fault = FaultConfig(**fault_data)
        comm = None
        if data.get("comm") is not None:
            comm_data = data["comm"]
            if not isinstance(comm_data, Mapping):
                raise ValueError("comm must be an object")
            comm = CommConfig(**comm_data)
        # Plain int / str fields the JSON leaves out keep their defaults.
        plain = {
            f.name: type(f.default)(data[f.name])
            for f in spec_fields
            if f.name in data and isinstance(f.default, (int, str))
        }
        return cls(
            engine=str(data.get("engine", "")),
            graph=str(data.get("graph", "")).upper(),
            partitioners=tuple(
                str(p) for p in data.get("partitioners", ())
            ),
            machine_counts=tuple(int(k) for k in data.get("machines", ())),
            params=params,
            **plain,
            fault=fault,
            comm=comm,
            rules=(
                dict(data["rules"])
                if data.get("rules") is not None else None
            ),
            abort_on=(
                str(data["abort_on"])
                if data.get("abort_on") is not None else None
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain JSON-able form (round-trips through ``from_dict``)."""
        data: Dict[str, object] = {
            "engine": self.engine,
            "graph": self.graph,
            "partitioners": list(self.partitioners),
            "machines": list(self.machine_counts),
            "params": [
                dataclasses.asdict(p) for p in self.params
            ],
            "scale": self.scale,
            "seed": self.seed,
            "num_epochs": self.num_epochs,
            "priority": self.priority,
            "tenant": self.tenant,
        }
        if self.fault is not None:
            data["fault"] = dataclasses.asdict(self.fault)
        if self.comm is not None:
            data["comm"] = dataclasses.asdict(self.comm)
        if self.rules is not None:
            data["rules"] = self.rules
        if self.abort_on is not None:
            data["abort_on"] = self.abort_on
        return data


@dataclass
class Job:
    """One admitted job and its live progress.

    ``results`` holds per-cell record lists in the order of the spec's
    :meth:`~SweepJobSpec.cell_specs`, and ``records`` concatenates them
    once every cell has landed, giving exactly the order the serial
    grid runner produces. ``dedup_hits`` counts cells satisfied by
    another job's identical cell instead of fresh compute. ``bus``,
    ``rules`` and ``trace`` are the scheduler's live handles for the
    job (bus writer, alert rules, server trace sink); they are never
    serialised.
    """

    id: str
    spec: SweepJobSpec
    state: str = "queued"
    cells_done: int = 0
    dedup_hits: int = 0
    error: Optional[str] = None
    bus_dir: Optional[str] = None
    created_at: float = field(default_factory=time.time)
    #: Monotonic admission timestamp, for the admission-to-first-record
    #: latency metric (wall-clock ``created_at`` is not duration-safe).
    admitted_perf: float = field(default_factory=time.perf_counter)
    finished_at: Optional[float] = None
    results: List[Optional[List]] = field(default_factory=list)
    findings: List[Dict[str, object]] = field(default_factory=list)
    bus: Optional[BusWriter] = None
    rules: Optional[RuleSet] = None
    trace: Optional[JsonlSink] = None

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * self.spec.num_cells

    @property
    def cells_total(self) -> int:
        """Total cells this job expands into."""
        return self.spec.num_cells

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state in ("done", "failed", "cancelled", "aborted")

    def close_streams(self) -> None:
        """Close the bus writer and trace sink (idempotent)."""
        for stream in (self.bus, self.trace):
            if stream is not None:
                stream.close()

    def records(self) -> List:
        """All landed records, concatenated in cell order."""
        records: List = []
        for cell_records in self.results:
            if cell_records:
                records.extend(cell_records)
        return records

    def to_dict(self) -> Dict[str, object]:
        """JSON summary served by ``GET /jobs/<id>``."""
        return {
            "id": self.id,
            "state": self.state,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "engine": self.spec.engine,
            "graph": self.spec.graph,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "records_done": sum(
                len(r) for r in self.results if r
            ),
            "dedup_hits": self.dedup_hits,
            "error": self.error,
            "bus_dir": self.bus_dir,
            "created_at": self.created_at,
            "finished_at": self.finished_at,
            "findings": list(self.findings),
        }
