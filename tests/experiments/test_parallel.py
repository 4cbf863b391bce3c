"""Every grid driver must reproduce the serial runs exactly."""

import dataclasses

import numpy as np
import pytest

from repro.costmodel import DEFAULT_COST_MODEL
from repro.experiments import (
    CellSpec,
    CommConfig,
    FaultConfig,
    TrainingParams,
    reduced_grid,
    run_distdgl,
    run_distdgl_grid,
    run_distdgl_grid_parallel,
    run_distgnn,
    run_distgnn_grid,
    run_distgnn_grid_parallel,
    run_grid,
)
from repro.graph import random_split

EDGE_NAMES = ["random", "hdrf"]
VERTEX_NAMES = ["random", "ldg"]
MACHINES = [2, 4]


def _grid():
    return list(reduced_grid())[:2]


#: Per engine: partitioner names and the single-run oracle a grid
#: must reproduce cell by cell.
ENGINE_CASES = {
    "distgnn": (EDGE_NAMES, run_distgnn),
    "distdgl": (VERTEX_NAMES, run_distdgl),
}


@pytest.mark.parametrize("workers", [1, 2])
class TestRunGrid:
    """``run_grid`` — under every driver — must reproduce a plain loop
    over the engine's single-run function exactly."""

    @pytest.mark.parametrize("engine", sorted(ENGINE_CASES))
    def test_records_equal_serial(self, tiny_or, engine, workers):
        names, run_one = ENGINE_CASES[engine]
        split = random_split(tiny_or, seed=0)
        extra = {"split": split} if engine == "distdgl" else {}
        serial = [
            run_one(tiny_or, name, k, params, seed=0, **extra)
            for k in MACHINES
            for name in names
            for params in _grid()
        ]
        got = run_grid(
            engine, tiny_or, names, MACHINES, _grid(), split=split,
            seed=0, workers=workers,
        )
        assert got == serial

    def test_default_split_matches(self, tiny_or, workers):
        """Every driver must derive the same default split from the seed."""
        serial = [
            run_distdgl(tiny_or, name, 2, params, seed=3)
            for name in VERTEX_NAMES
            for params in _grid()
        ]
        got = run_grid(
            "distdgl", tiny_or, VERTEX_NAMES, [2], _grid(), seed=3,
            workers=workers,
        )
        assert got == serial


#: One changed value per ``CellSpec`` field; a new field must add its
#: own entry here (and so be part of the dedup key) to pass.
PERTURBED = {
    "engine": "distdgl",
    "partitioner": "dbh",
    "num_machines": 8,
    "seed": 1,
    "num_epochs": 2,
    "grid": (TrainingParams(num_layers=2),),
    "fault_config": FaultConfig(crash_rate=0.1),
    "comm_config": CommConfig(compression="fp16"),
    "cost_model": dataclasses.replace(
        DEFAULT_COST_MODEL, network_latency=1.0
    ),
}


class TestCellSpecKey:
    BASE = CellSpec("distgnn", "hdrf", 4, 0, 1, (TrainingParams(),))

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(CellSpec)]
    )
    def test_every_field_changes_the_key(self, field):
        """Every knob that changes a cell's records is in its key, so
        the serve daemon can never dedupe two different cells."""
        changed = dataclasses.replace(
            self.BASE, **{field: PERTURBED[field]}
        )
        assert changed.key("fp") != self.BASE.key("fp")

    def test_graph_is_part_of_the_key(self):
        assert self.BASE.key("fp-a") != self.BASE.key("fp-b")
        assert self.BASE.key("fp-a") == self.BASE.key("fp-a")


class TestFaultSweepParallel:
    """Fault sweeps must be record-identical between runners: the fault
    plan is a pure function of (config, k, epochs), so fanning cells out
    over processes cannot change which faults strike where."""

    FAULTS = FaultConfig(crash_rate=0.15, slowdown_rate=0.1, loss_rate=0.1,
                         checkpoint_every=2, seed=13)

    def test_distgnn_records_equal_serial(self, tiny_or):
        serial = run_distgnn_grid(
            tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0,
            fault_config=self.FAULTS, num_epochs=4,
        )
        parallel = run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0, workers=2,
            fault_config=self.FAULTS, num_epochs=4,
        )
        assert parallel == serial
        assert any(r.crashes or r.slowdowns or r.lost_messages
                   for r in serial)

    def test_distdgl_records_equal_serial(self, tiny_or):
        split = random_split(tiny_or, seed=0)
        serial = run_distdgl_grid(
            tiny_or, VERTEX_NAMES, MACHINES, _grid(), split=split, seed=0,
            fault_config=self.FAULTS, num_epochs=3,
        )
        parallel = run_distdgl_grid_parallel(
            tiny_or, VERTEX_NAMES, MACHINES, _grid(), split=split, seed=0,
            workers=2, fault_config=self.FAULTS, num_epochs=3,
        )
        assert parallel == serial
        assert any(r.crashes or r.degraded_steps for r in serial)


class TestObsParallel:
    """With telemetry enabled the runners must stay record-identical:
    the obs level propagates into the workers and ``obs_metrics`` holds
    only simulated quantities, never wall clock."""

    def test_distgnn_obs_records_equal_serial(self, tiny_or):
        from repro import obs

        obs.enable()
        try:
            serial = run_distgnn_grid(
                tiny_or, EDGE_NAMES, [2], _grid(), seed=0
            )
            obs.reset()
            obs.enable()
            parallel = run_distgnn_grid_parallel(
                tiny_or, EDGE_NAMES, [2], _grid(), seed=0, workers=2
            )
        finally:
            obs.reset()
            obs.disable()
        assert parallel == serial
        assert all(r.obs_metrics is not None for r in serial)
        assert all(r.obs_metrics["phase_seconds"] for r in serial)

    def test_distdgl_obs_records_equal_serial(self, tiny_or):
        from repro import obs

        split = random_split(tiny_or, seed=0)
        obs.enable()
        try:
            serial = run_distdgl_grid(
                tiny_or, VERTEX_NAMES, [2], _grid(), split=split, seed=0
            )
            obs.reset()
            obs.enable()
            parallel = run_distdgl_grid_parallel(
                tiny_or, VERTEX_NAMES, [2], _grid(), split=split,
                seed=0, workers=2,
            )
        finally:
            obs.reset()
            obs.disable()
        assert parallel == serial
        assert all(r.obs_metrics is not None for r in serial)

    def test_disabled_obs_leaves_records_unmarked(self, tiny_or):
        records = run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, [2], _grid(), seed=0, workers=2
        )
        assert all(r.obs_metrics is None for r in records)


class TestCellCallback:
    """The coordinator callback fires once per cell, in submission
    order, and its exceptions abort the remaining grid."""

    def test_callback_in_submission_order(self, tiny_or):
        seen = []
        records = run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0, workers=2,
            cell_callback=lambda cell, recs: seen.append(
                (cell, len(recs))
            ),
        )
        cells = len(MACHINES) * len(EDGE_NAMES)
        assert seen == [(i, len(_grid())) for i in range(cells)]
        assert len(records) == cells * len(_grid())

    def test_cell_offset_threads_through(self, tiny_or):
        seen = []
        run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, [2], _grid(), seed=0, workers=1,
            cell_offset=7,
            cell_callback=lambda cell, recs: seen.append(cell),
        )
        assert seen == [7, 8]

    def test_callback_exception_aborts_and_propagates(self, tiny_or):
        from repro.obs.live import SweepAborted

        seen = []

        def abort_on_second(cell, recs):
            seen.append(cell)
            if cell == 1:
                raise SweepAborted([])

        with pytest.raises(SweepAborted):
            run_distgnn_grid_parallel(
                tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0,
                workers=2, cell_callback=abort_on_second,
            )
        assert seen == [0, 1]  # later cells never reach the callback

    def test_bus_plus_callback_on_serial_path(self, tiny_or, tmp_path):
        """workers=1 with live features drives the same per-cell
        helpers in-process: records stay identical to the serial grid
        and the bus carries every record."""
        from repro.obs.live import BusTailer

        seen = []
        records = run_distgnn_grid_parallel(
            tiny_or, EDGE_NAMES, [2], _grid(), seed=0, workers=1,
            bus_dir=str(tmp_path),
            cell_callback=lambda cell, recs: seen.append(cell),
        )
        serial = run_distgnn_grid(
            tiny_or, EDGE_NAMES, [2], _grid(), seed=0
        )
        assert records == serial
        assert seen == [0, 1]
        events = BusTailer(str(tmp_path)).poll()
        done = [e for e in events if e["kind"] == "record-done"]
        assert len(done) == len(serial)


def test_record_order_is_serial_order(tiny_or):
    """Records come back in machines x partitioners x params order even
    when cells finish out of order."""
    records = run_distgnn_grid_parallel(
        tiny_or, EDGE_NAMES, MACHINES, _grid(), seed=0, workers=4
    )
    expected = [
        (k, name)
        for k in MACHINES
        for name in EDGE_NAMES
        for _ in _grid()
    ]
    got = [(r.num_machines, r.partitioner) for r in records]
    assert got == expected


class TestBusWriterLifecycle:
    """The in-process sweep path must close (flush) its bus writer."""

    def test_inline_sweep_flushes_and_evicts_writer(
        self, tiny_or, tmp_path
    ):
        from repro.experiments.cells import _BUS_WRITERS
        from repro.obs.live import BusTailer

        bus = str(tmp_path / "bus")
        run_distgnn_grid_parallel(
            tiny_or, ["random"], [2], _grid(), workers=1, bus_dir=bus,
        )
        assert bus not in _BUS_WRITERS  # closed and evicted per sweep
        events = BusTailer(bus).poll()
        kinds = [e["kind"] for e in events if e["kind"] != "heartbeat"]
        # Fully flushed: the complete cell lifecycle is on disk.
        assert kinds == (
            ["cell-start"] + ["record-done"] * len(_grid())
            + ["cell-done"]
        )

    def test_back_to_back_sweeps_use_fresh_streams(
        self, tiny_or, tmp_path
    ):
        from repro.obs.live import BusTailer

        bus_a = str(tmp_path / "bus_a")
        bus_b = str(tmp_path / "bus_b")
        run_distgnn_grid_parallel(
            tiny_or, ["random"], [2], _grid(), workers=1,
            bus_dir=bus_a,
        )
        run_distgnn_grid_parallel(
            tiny_or, ["random", "hdrf"], [2], _grid(), workers=1,
            bus_dir=bus_b,
        )
        events_a = [
            e for e in BusTailer(bus_a).poll()
            if e["kind"] != "heartbeat"
        ]
        events_b = [
            e for e in BusTailer(bus_b).poll()
            if e["kind"] != "heartbeat"
        ]
        # No cross-contamination: each dir holds exactly its own
        # sweep, and the second writer's cseq state restarted fresh.
        assert len(events_a) == 2 + len(_grid())
        assert len(events_b) == 2 * (2 + len(_grid()))
        assert {e["cell"] for e in events_a} == {0}
        assert {e["cell"] for e in events_b} == {0, 1}
        first_a = [e for e in events_a if e["cell"] == 0][0]
        first_b = [e for e in events_b if e["cell"] == 0][0]
        assert first_a["cseq"] == 0
        assert first_b["cseq"] == 0
