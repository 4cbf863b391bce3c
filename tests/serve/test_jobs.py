"""Sweep-job spec validation and job-state bookkeeping."""

import pytest

from repro.experiments import TrainingParams, reduced_grid
from repro.serve import Job, SweepJobSpec


def _spec_dict(**overrides):
    data = {
        "engine": "distgnn",
        "graph": "or",
        "partitioners": ["random", "hdrf"],
        "machines": [2, 4],
        "params": [{"num_layers": 2}],
    }
    data.update(overrides)
    return data


class TestSpecValidation:
    def test_from_dict_round_trips(self):
        spec = SweepJobSpec.from_dict(
            _spec_dict(tenant="alice", priority=3, seed=7)
        )
        assert spec.graph == "OR"  # normalised to the dataset key
        assert spec.params == (TrainingParams(num_layers=2),)
        again = SweepJobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SweepJobSpec.from_dict(_spec_dict(engine="horovod"))

    def test_unknown_graph_rejected(self):
        with pytest.raises(ValueError, match="unknown graph"):
            SweepJobSpec.from_dict(_spec_dict(graph="ZZ"))

    def test_partitioners_checked_against_engine(self):
        # metis is an edge-cut (DistDGL) partitioner, not a DistGNN one.
        with pytest.raises(ValueError, match="distgnn partitioner"):
            SweepJobSpec.from_dict(_spec_dict(partitioners=["metis"]))
        spec = SweepJobSpec.from_dict(
            _spec_dict(engine="distdgl", partitioners=["metis"])
        )
        assert spec.partitioners == ("metis",)

    def test_empty_machines_rejected(self):
        with pytest.raises(ValueError, match="machine count"):
            SweepJobSpec.from_dict(_spec_dict(machines=[]))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            SweepJobSpec.from_dict(_spec_dict(shard_count=3))

    def test_unknown_params_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            SweepJobSpec.from_dict(
                _spec_dict(params=[{"learning_rate": 0.1}])
            )

    def test_named_grid_expands(self):
        spec = SweepJobSpec.from_dict(_spec_dict(params="reduced"))
        assert spec.params == tuple(reduced_grid())

    def test_unknown_named_grid_rejected(self):
        with pytest.raises(ValueError, match="named grid"):
            SweepJobSpec.from_dict(_spec_dict(params="everything"))

    def test_abort_on_requires_rules(self):
        with pytest.raises(ValueError, match="needs rules"):
            SweepJobSpec.from_dict(_spec_dict(abort_on="critical"))

    def test_cells_order_matches_grid_runners(self):
        spec = SweepJobSpec.from_dict(_spec_dict())
        cells = spec.cell_specs()
        assert [(c.num_machines, c.partitioner) for c in cells] == [
            (2, "random"), (2, "hdrf"), (4, "random"), (4, "hdrf"),
        ]
        assert spec.num_cells == 4
        assert all(c.grid == spec.params for c in cells)


class TestJobState:
    def test_results_slots_and_records_order(self):
        spec = SweepJobSpec.from_dict(_spec_dict())
        job = Job(id="job-000001", spec=spec)
        assert job.results == [None] * 4
        assert not job.finished
        job.results[2] = ["r2a", "r2b"]
        job.results[0] = ["r0"]
        # Concatenation is in cell order, not arrival order.
        assert job.records() == ["r0", "r2a", "r2b"]

    def test_to_dict_summary(self):
        spec = SweepJobSpec.from_dict(_spec_dict(tenant="alice"))
        job = Job(id="job-000001", spec=spec, state="done")
        summary = job.to_dict()
        assert summary["id"] == "job-000001"
        assert summary["tenant"] == "alice"
        assert summary["cells_total"] == 4
        assert job.finished
