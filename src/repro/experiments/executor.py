"""Reusable cell executor: submit/collect fan-out with prompt aborts.

The sweep's unit of distribution is the *cell* — one independent,
deterministic task (for sweeps: :func:`~.cells.run_cell` on a
``(machines, partitioner)`` pair and its whole parameter grid). This
module owns the fan-out machinery: running cells inline or over a
:class:`~concurrent.futures.ProcessPoolExecutor`, collecting results in
task order, invoking a per-cell callback, and cancelling *promptly*
when something aborts.

Three layers, smallest first:

* :class:`CellTask` — a picklable description of one cell: an ordinal
  ``index`` (the identity handed to callbacks and the telemetry bus), a
  module-level function and its arguments.
* :class:`CellExecutor` — submit (a :class:`~concurrent.futures.Future`
  back) over its own lazily-created process pool, falling back to
  inline execution for ``workers <= 1``. Pool workers exit once their
  coordinator process is gone. :meth:`CellExecutor.cancel` uses
  ``shutdown(wait=False, cancel_futures=True)``, so an abort drops
  every not-yet-started cell and returns immediately instead of
  blocking until running cells drain (the old ``future.cancel()`` loop
  stalled ``--abort-on`` for a whole cell).
* :func:`execute_cells` — the batch driver :func:`~.cells.run_grid`
  (and so ``repro sweep``) sits on: run every task, return results aligned
  with the task list, fire ``cell_callback(task.index, result)`` in
  task order, and on any exception (a cell's or the callback's) cancel
  the rest promptly and re-raise.

:func:`execute_cells` keeps one warm pool per worker count for the life
of the process. A worker drops its partition cache and sampling traces
at its first cell of each call, as a pool forked for that call would
start; while this process caches partitions, each call forks a fresh
pool, which is what hands them to the workers. Cells are submitted
longest first by the service time their ``cost_key`` last took;
results and callbacks stay in task order.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from .cache import cache_size, clear_cache

__all__ = [
    "CellTask",
    "CellExecutor",
    "execute_cells",
]


@dataclass(frozen=True)
class CellTask:
    """One unit of sweep work for the executor.

    ``fn`` must be a module-level callable (it crosses process
    boundaries by pickle) returning the cell's result — for the grid
    runners, the cell's list of records. ``index`` is the cell's global
    ordinal: it is what ``cell_callback`` receives and what the
    telemetry bus keys events on. :func:`execute_cells` submits first
    the cells whose ``cost_key`` took longest before.
    """

    index: int
    fn: Callable
    args: Tuple = ()
    cost_key: Optional[Hashable] = None

    def run(self):
        """Execute the cell inline and return its result.

        The span and profile scope are shared no-ops while
        observability and profiling are off (the default), so the
        inline path stays inside the perf gate.
        """
        from ..obs import api as obs
        from ..obs.profiling import capture as profiling

        with obs.span("executor.cell"):
            with profiling.profile_scope("executor.cell"):
                return self.fn(*self.args)


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: exit once the process that made the pool
    (pid ``parent``) is gone, which the worker sees as a new parent.

    A daemon thread polls ``os.getppid`` about once a second, so a
    ``kill -9`` of the coordinator leaves no orphaned workers behind.
    ``PR_SET_PDEATHSIG`` would not do: it fires when the *thread* that
    forked dies, and the serve daemon forks from its runner threads.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class CellExecutor:
    """Submit/collect wrapper over a process pool, with prompt aborts.

    ``workers=None`` lets the pool pick (CPU count); ``workers <= 1``
    executes inline in the calling thread (no pool, no pickling). The
    pool is created lazily on the first parallel submission, so an
    executor constructed and never used costs nothing.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Guards ``_pool`` creation/replacement: the serve daemon's
        #: runner threads submit concurrently.
        self._pool_lock = threading.Lock()
        self._cancelled = False

    @property
    def inline(self) -> bool:
        """True when cells run in the calling thread (workers <= 1)."""
        return self.workers is not None and self.workers <= 1

    def _pool_submit(self, task: CellTask):
        """Submit to the (lazily built) pool, replacing a broken one.

        A pool whose worker died (``os._exit``, OOM kill, segfault) is
        broken for good: the cells it held fail with
        :class:`~concurrent.futures.process.BrokenProcessPool` and it
        refuses every later submission. Dropping it here means one dead
        worker costs the cells in flight, not the executor.

        Every worker watches this process (:func:`_exit_with_parent`),
        so killing the coordinator does not leave its pool behind.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            try:
                return self._pool.submit(task.fn, *task.args)
            except BrokenProcessPool:
                self._pool = self._new_pool()
                return self._pool.submit(task.fn, *task.args)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_exit_with_parent,
            initargs=(os.getpid(),),
        )

    def submit(self, task: CellTask) -> Future:
        """Submit one cell; an inline executor runs it before returning
        an already resolved future."""
        if self._cancelled:
            raise RuntimeError("executor was cancelled")
        if not self.inline:
            return self._pool_submit(task)
        future: Future = Future()
        try:
            future.set_result(task.run())
        except Exception as error:
            future.set_exception(error)
        return future

    def cancel(self) -> None:
        """Abort promptly: drop every not-yet-started cell.

        Uses ``shutdown(wait=False, cancel_futures=True)`` — pending
        futures are cancelled and the call returns immediately; cells
        already executing run to completion in the background (their
        worker processes exit afterwards), but nobody waits on them.
        """
        self._cancelled = True
        if self._pool is not None:
            # Keep the pool strongly referenced: its manager thread
            # reads the cancel flag through a weakref, and dropping
            # the last reference here races it into drain mode (run
            # every pending cell) instead of cancelling them.
            self._pool.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool; with ``wait`` the workers are joined."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None


#: :func:`execute_cells`' warm pools, per worker count; the seconds a
#: pooled cell of each cost key last took; and the number of the latest
#: pooled call, which a worker forked during it inherits.
_POOLS: Dict[Optional[int], CellExecutor] = {}
_SERVICE_S: Dict[Hashable, float] = {}
_CALL = 0


def _pool(workers: Optional[int]) -> CellExecutor:
    """The warm pool for ``workers``; a fresh one when it was cancelled
    or when this process has cached partitions for the workers to fork."""
    held = _POOLS.get(workers)
    if held is not None and not held._cancelled and cache_size() == 0:
        return held
    if held is not None:
        held.shutdown(wait=False)
    _POOLS[workers] = CellExecutor(workers)
    return _POOLS[workers]


@atexit.register
def _shutdown_pools() -> None:
    for executor in _POOLS.values():
        executor.shutdown()


def _timed(call: int, fn: Callable, args: Tuple) -> Tuple[float, object]:
    """Run one pooled cell of call ``call``, first dropping what this
    worker cached in an earlier call; returns ``(seconds, result)``."""
    global _CALL
    if call != _CALL:
        _CALL = call
        clear_cache()
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def _submission_order(tasks: Sequence[CellTask]) -> List[int]:
    """Task positions, longest first: cells whose cost key has no
    recorded time in task order, then the rest by descending time."""
    return sorted(
        range(len(tasks)),
        key=lambda i: -_SERVICE_S.get(tasks[i].cost_key, math.inf),
    )


def execute_cells(
    tasks: Sequence[CellTask],
    workers: Optional[int] = None,
    cell_callback: Optional[Callable[[int, object], None]] = None,
) -> List:
    """Run every task and return results aligned with the task list.

    ``cell_callback(task.index, result)`` fires once per cell in *task
    order* — a cell that finishes early waits for its predecessors'
    callbacks, which is what lets alert rules abort deterministically.
    Any exception (from a cell or the callback) cancels all pending
    cells promptly and propagates.
    """
    global _CALL
    results: List = []

    def finish(task: CellTask, result) -> None:
        results.append(result)
        if cell_callback is not None:
            cell_callback(task.index, result)

    if CellExecutor(workers).inline:
        # No pool to cancel: an exception simply stops the loop before
        # later cells start, which is already the prompt abort.
        for task in tasks:
            finish(task, task.run())
        return results
    _CALL += 1
    executor = _pool(workers)
    handles: List = [None] * len(tasks)
    try:
        for i in _submission_order(tasks):
            task = tasks[i]
            handles[i] = executor.submit(
                CellTask(task.index, _timed, (_CALL, task.fn, task.args))
            )
        for task, handle in zip(tasks, handles):
            seconds, result = handle.result()
            if task.cost_key is not None:
                _SERVICE_S[task.cost_key] = seconds
            finish(task, result)
    except BaseException:
        executor.cancel()
        raise
    return results
