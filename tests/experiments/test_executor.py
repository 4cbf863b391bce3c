"""Unit tests for the extracted cell executor."""

import os
import time
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import (
    CellExecutor,
    CellTask,
    execute_cells,
)


def _double(x):
    return x * 2


def _boom(x):
    raise RuntimeError(f"cell {x} exploded")


def _die(x):
    """Kill the worker process outright, as an OOM kill would."""
    os._exit(1)


def _sleep_while_exists(flag_path):
    """Run until the flag file disappears (a controllable slow cell).

    The test holds the flag while asserting abort promptness, then
    removes it so the background worker (which an abort cannot kill,
    only stop waiting for) exits quickly and never stalls interpreter
    shutdown.
    """
    for _ in range(1200):
        if not os.path.exists(flag_path):
            return "released"
        time.sleep(0.05)
    return "timed out"


def _tasks(values):
    return [
        CellTask(index=i, fn=_double, args=(v,))
        for i, v in enumerate(values)
    ]


class TestCellTask:
    def test_run_is_fn_of_args(self):
        assert CellTask(index=0, fn=_double, args=(21,)).run() == 42


class TestExecuteCells:
    def test_inline_results_align_with_tasks(self):
        assert execute_cells(_tasks([1, 2, 3]), workers=1) == [2, 4, 6]

    def test_pool_matches_inline(self):
        tasks = _tasks([5, 6, 7, 8])
        assert (
            execute_cells(tasks, workers=2)
            == execute_cells(tasks, workers=1)
        )

    def test_callbacks_fire_in_task_order(self):
        seen = []
        execute_cells(
            _tasks([1, 2, 3, 4]), workers=2,
            cell_callback=lambda index, result: seen.append(
                (index, result)
            ),
        )
        assert seen == [(0, 2), (1, 4), (2, 6), (3, 8)]

    def test_cell_exception_propagates(self):
        tasks = [CellTask(index=0, fn=_boom, args=(0,))]
        with pytest.raises(RuntimeError, match="exploded"):
            execute_cells(tasks, workers=1)

    def test_callback_exception_stops_inline_run(self):
        ran = []
        tasks = [
            CellTask(index=i, fn=_double, args=(i,)) for i in range(3)
        ]

        def callback(index, result):
            ran.append(index)
            raise RuntimeError("abort")

        with pytest.raises(RuntimeError, match="abort"):
            execute_cells(tasks, workers=1, cell_callback=callback)
        assert ran == [0]

    def test_abort_does_not_wait_for_running_cells(self, tmp_path):
        """The regression this PR fixes: an abort must drop pending
        cells and return promptly instead of draining running ones."""
        flag = str(tmp_path / "hold")
        with open(flag, "w", encoding="utf-8"):
            pass
        tasks = [
            CellTask(index=0, fn=_double, args=(1,)),
            CellTask(index=1, fn=_sleep_while_exists, args=(flag,)),
            CellTask(index=2, fn=_sleep_while_exists, args=(flag,)),
            CellTask(index=3, fn=_sleep_while_exists, args=(flag,)),
        ]

        def callback(index, result):
            raise RuntimeError("abort after first cell")

        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="abort after"):
                execute_cells(
                    tasks, workers=2, cell_callback=callback
                )
            elapsed = time.monotonic() - started
            assert elapsed < 2.0, (
                f"abort blocked for {elapsed:.1f}s on running cells"
            )
        finally:
            os.remove(flag)


class TestCellExecutor:
    def test_inline_submit_resolves_immediately(self):
        executor = CellExecutor(workers=1)
        handle = executor.submit(CellTask(index=0, fn=_double, args=(4,)))
        assert handle.done()
        assert handle.result() == 8

    def test_submit_after_cancel_raises(self):
        executor = CellExecutor(workers=1)
        executor.cancel()
        with pytest.raises(RuntimeError, match="cancelled"):
            executor.submit(CellTask(index=0, fn=_double, args=(1,)))

    def test_cancel_returns_promptly_with_running_cell(self, tmp_path):
        flag = str(tmp_path / "hold")
        with open(flag, "w", encoding="utf-8"):
            pass
        executor = CellExecutor(workers=2)
        try:
            for index in (0, 1):
                executor.submit(
                    CellTask(
                        index=index, fn=_sleep_while_exists,
                        args=(flag,),
                    )
                )
            # The pool prefeeds up to workers+1 items into its call
            # queue (those escape cancel_futures), so queue deeper to
            # observe a genuinely dropped cell.
            pending = [
                executor.submit(CellTask(index=i, fn=_double, args=(i,)))
                for i in range(2, 8)
            ]
            started = time.monotonic()
            executor.cancel()
            assert time.monotonic() - started < 2.0
            with pytest.raises(CancelledError):
                pending[-1].result()  # dropped, never ran
        finally:
            os.remove(flag)

    def test_context_manager_waits_on_clean_exit(self):
        with CellExecutor(workers=2) as executor:
            handles = [
                executor.submit(CellTask(index=i, fn=_double, args=(i,)))
                for i in range(3)
            ]
        assert [h.result() for h in handles] == [0, 2, 4]

    def test_dead_worker_does_not_poison_the_executor(self):
        """A worker dying breaks its pool for good; the executor must
        replace it instead of failing every later submit."""
        with CellExecutor(workers=2) as executor:
            doomed = executor.submit(CellTask(index=0, fn=_die, args=(0,)))
            with pytest.raises(BrokenProcessPool):
                doomed.result()
            after = executor.submit(CellTask(index=1, fn=_double, args=(4,)))
            assert after.result() == 8

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            CellExecutor(workers=-1)
