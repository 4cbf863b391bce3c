"""``execute_cells``' process-wide pool: warm across calls, cold at the
start of each, longest cells first, gone at interpreter exit."""

import dataclasses
import multiprocessing
import os
import subprocess
import sys

import pytest

from repro.experiments import (
    CellTask,
    cache_size,
    cached_edge_partition,
    clear_cache,
    execute_cells,
    reduced_grid,
    run_distdgl_grid,
    run_distdgl_grid_parallel,
)
from repro.experiments import executor
from repro.graph import random_split

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__
    )))),
    "src",
)

#: Inherited by every pool forked after this module is imported: two
#: cells that meet here ran on two different workers.
_MEET = multiprocessing.Barrier(2)


def _meet_and_partition(graph):
    """Fill this worker's partition cache once both workers are here."""
    _MEET.wait(timeout=60)
    cached_edge_partition(graph, "random", 2)
    return os.getpid()


def _pid():
    return os.getpid()


def _double(x):
    return x * 2


def _both_workers_partition(graph):
    """One cell on each of the pool's two workers, each partitioning;
    returns the two worker pids."""
    clear_cache()  # with nothing cached here, later calls reuse the pool
    tasks = [CellTask(i, _meet_and_partition, (graph,)) for i in range(2)]
    pids = set(execute_cells(tasks, workers=2))
    assert len(pids) == 2
    return pids


def test_consecutive_calls_share_the_workers(tiny_or):
    workers = _both_workers_partition(tiny_or)
    tasks = [CellTask(i, _pid) for i in range(8)]
    assert set(execute_cells(tasks, workers=2)) <= workers
    assert set(execute_cells(tasks, workers=2)) <= workers
    assert workers <= {p.pid for p in multiprocessing.active_children()}


def _partition_and_size(graph):
    cached_edge_partition(graph, "random", 2)
    return cache_size()


def test_each_call_starts_with_cold_workers(tiny_or):
    """A warm worker keeps its partitions for the rest of a call, never
    into the next one, and the parent's ``clear_cache`` changes nothing
    about that."""
    _both_workers_partition(tiny_or)
    sizes = [CellTask(i, cache_size) for i in range(4)]
    assert execute_cells(sizes, workers=2) == [0] * 4
    again = [CellTask(i, _partition_and_size, (tiny_or,)) for i in range(4)]
    assert execute_cells(again, workers=2) == [1] * 4
    clear_cache()
    assert execute_cells(sizes, workers=2) == [0] * 4


def _hdrf_seconds(graph):
    return cached_edge_partition(graph, "hdrf", 2)[1]


def test_parent_partitions_reach_fresh_workers(tiny_or):
    """With partitions cached here the pool is forked anew, so its
    workers answer from them (the same ``partitioning_seconds``)."""
    workers = _both_workers_partition(tiny_or)
    _, seconds = cached_edge_partition(tiny_or, "hdrf", 2)
    tasks = [CellTask(i, _hdrf_seconds, (tiny_or,)) for i in range(4)]
    assert execute_cells(tasks, workers=2) == [seconds] * 4
    assert not set(execute_cells([CellTask(0, _pid)], workers=2)) & workers
    clear_cache()


class TestLongestFirst:
    KEYS = ["a", "unseen", "b", None, "c"]

    def tasks(self):
        return [
            CellTask(i, _double, (i,), cost_key=key)
            for i, key in enumerate(self.KEYS)
        ]

    def test_unseen_in_task_order_then_longest_first(self, monkeypatch):
        monkeypatch.setattr(
            executor, "_SERVICE_S", {"a": 1.0, "b": 3.0, "c": 2.0}
        )
        assert executor._submission_order(self.tasks()) == [1, 3, 2, 4, 0]

    def test_results_and_callbacks_stay_in_task_order(self, monkeypatch):
        monkeypatch.setattr(
            executor, "_SERVICE_S", {"a": 1.0, "b": 3.0, "c": 2.0}
        )
        seen = []
        results = execute_cells(
            self.tasks(), workers=2,
            cell_callback=lambda index, result: seen.append(index),
        )
        assert results == [0, 2, 4, 6, 8]
        assert seen == [0, 1, 2, 3, 4]
        # Every keyed cell's service time is recorded; keyless are not.
        assert set(executor._SERVICE_S) == {"a", "b", "c", "unseen"}


def test_second_grid_with_history_equals_serial(tiny_or):
    """Ordered by the first run's service times, the second run still
    returns the serial records (``partitioning_seconds`` is wall clock,
    measured in whichever process partitioned)."""
    names, ks, grid = ["random", "ldg", "metis"], [2, 4], list(
        reduced_grid()
    )[:2]
    split = random_split(tiny_or, seed=0)
    clear_cache()
    runs = [
        run_distdgl_grid_parallel(
            tiny_or, names, ks, grid, split=split, seed=0, workers=2
        )
        for _ in range(2)
    ]
    assert {("distdgl", n, k) for n in names for k in ks} <= set(
        executor._SERVICE_S
    )
    serial = run_distdgl_grid(tiny_or, names, ks, grid, split=split, seed=0)

    def comparable(records):
        return [
            dataclasses.replace(r, partitioning_seconds=0.0)
            for r in records
        ]

    assert comparable(runs[0]) == comparable(serial)
    assert comparable(runs[1]) == comparable(serial)


SCRIPT = """
import multiprocessing
from repro.experiments import reduced_grid, run_distgnn_grid_parallel
from repro.graph import load_dataset

run_distgnn_grid_parallel(
    load_dataset("OR", "tiny"), ["random", "hdrf"], [2],
    list(reduced_grid())[:1], workers=2,
)
print(*[p.pid for p in multiprocessing.active_children()])
"""


def test_no_worker_outlives_the_interpreter():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
