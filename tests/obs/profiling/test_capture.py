"""Deterministic cProfile capture: identity, gating, nesting."""

import sys

from repro import obs
from repro.experiments import clear_cache, reduced_grid, run_distgnn_grid
from repro.experiments.executor import CellTask
from repro.obs.profiling import capture as profiling
from repro.partitioning import make_edge_partitioner


def _kernel(graph):
    make_edge_partitioner("hdrf").partition(graph, 4, seed=0)


def _warm(graph):
    """Warm the cached adjacency views (and any lazy imports) so two
    captures see the same call graph."""
    graph.undirected_edges()
    graph.degrees()
    _kernel(graph)


class TestCaptureDeterminism:
    def test_same_seed_same_identity(self, tiny_or):
        _warm(tiny_or)
        with profiling.capture("kernel") as first:
            _kernel(tiny_or)
        with profiling.capture("kernel") as second:
            _kernel(tiny_or)
        assert first.profile is not None
        assert first.profile.identity() == second.profile.identity()

    def test_profile_has_kernel_frames(self, tiny_or):
        _warm(tiny_or)
        with profiling.capture("kernel") as cap:
            _kernel(tiny_or)
        funcs = {stat.func for stat in cap.profile.functions}
        assert any("hdrf" in f for f in funcs)
        assert cap.profile.stacks

    def test_capture_machinery_pruned(self, tiny_or):
        _warm(tiny_or)
        with profiling.capture("kernel") as cap:
            _kernel(tiny_or)
        for stat in cap.profile.functions:
            assert "profiling/capture.py" not in stat.func
            assert "_lsprof" not in stat.func

    def test_import_subtrees_collapse(self):
        sys.modules.pop("colorsys", None)
        with profiling.capture("imports") as cap:
            import colorsys  # noqa: F401 - the import IS the workload
        keys = list(cap.profile.stacks)
        assert any(key.endswith("<import>") for key in keys)
        assert not any("<frozen importlib" in key for key in keys)

    def test_capture_callable_returns_result_and_profile(self):
        result, profile = profiling.capture_callable(
            "fn", lambda x: x + 1, 41
        )
        assert result == 42
        assert profile is not None and profile.name == "fn"


class TestNesting:
    def test_inner_capture_is_noop(self):
        with profiling.capture("outer") as outer:
            with profiling.capture("inner") as inner:
                pass
        assert inner.profile is None
        assert outer.profile is not None

    def test_scope_inside_capture_is_null(self):
        profiling.enable()
        with profiling.capture("outer"):
            scope = profiling.profile_scope("inner")
        assert scope is profiling._NULL_SCOPE
        assert profiling.drain() == []


class TestAmbientScope:
    def test_off_by_default_returns_shared_null(self):
        assert not profiling.enabled()
        assert profiling.profile_scope("x") is profiling._NULL_SCOPE

    def test_enabled_scope_collects(self):
        profiling.enable()
        with profiling.profile_scope("scope.name"):
            sum(range(100))
        profiles = profiling.drain()
        assert [p.name for p in profiles] == ["scope.name"]
        assert profiling.drain() == []  # drained

    def test_disable_clears_collector(self):
        profiling.enable()
        with profiling.profile_scope("x"):
            pass
        profiling.disable()
        assert profiling.drain() == []

    def test_executor_cell_scope(self):
        profiling.enable()
        task = CellTask(index=0, fn=lambda: sum(range(50)))
        task.run()
        assert [p.name for p in profiling.drain()] == ["executor.cell"]

    def test_serial_grid_cell_supersedes_nested_scopes(self, tiny_or):
        """Every sweep cell — default serial runs included — runs
        under the ``executor.cell`` scope, and the no-nesting latch
        makes the outermost scope win: one profile per cell, with the
        kernel and epoch-loop scopes inside it as frames, not as
        profiles of their own."""
        clear_cache()  # so the partitioner kernel (and its scope) runs
        profiling.enable()
        run_distgnn_grid(
            tiny_or, ["hdrf", "dbh"], [2], list(reduced_grid())[:1]
        )
        profiles = profiling.drain()
        assert [p.name for p in profiles] == ["executor.cell"] * 2
        funcs = {stat.func for stat in profiles[0].functions}
        assert any("hdrf" in f for f in funcs)
        assert any("simulate_training" in f for f in funcs)

    def test_partitioner_scope_name(self, tiny_or):
        _warm(tiny_or)
        profiling.enable()
        _kernel(tiny_or)
        names = [p.name for p in profiling.drain()]
        assert names == ["partitioner.hdrf"]


class TestMetricsReporting:
    def test_capture_reports_when_obs_enabled(self):
        obs.configure("metrics")
        with profiling.capture("reported"):
            pass
        names = {entry["name"] for entry in obs.snapshot()}
        assert "profiling.captures" in names
        assert "profiling.capture_seconds" in names

    def test_capture_silent_when_obs_off(self):
        with profiling.capture("quiet"):
            pass
        assert len(obs.get_registry()) == 0
