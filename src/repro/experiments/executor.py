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
* :class:`CellExecutor` — submit/collect over a lazily-created process
  pool, falling back to inline execution for ``workers <= 1``.
  :meth:`CellExecutor.cancel` uses ``shutdown(wait=False,
  cancel_futures=True)``, so an abort drops every not-yet-started cell
  and returns immediately instead of blocking until running cells
  drain (the old ``future.cancel()`` loop stalled ``--abort-on`` for a
  whole cell).
* :func:`execute_cells` — the batch driver :func:`~.cells.run_grid`
  (and so ``repro sweep``) sits on: run every task, return results aligned
  with the task list, fire ``cell_callback(task.index, result)`` in
  task order, and on any exception (a cell's or the callback's) cancel
  the rest promptly and re-raise.

Scheduling is pluggable: ``schedule(tasks)`` returns a permutation of
``range(len(tasks))`` giving the *submission* order. Results and
callbacks always follow task order regardless of the schedule, so a
reordering schedule can improve pool utilisation (e.g. longest cell
first) without changing observable results — the default is FIFO.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "CellTask",
    "CellExecutor",
    "execute_cells",
    "fifo_schedule",
]


@dataclass(frozen=True)
class CellTask:
    """One unit of sweep work for the executor.

    ``fn`` must be a module-level callable (it crosses process
    boundaries by pickle) returning the cell's result — for the grid
    runners, the cell's list of records. ``index`` is the cell's global
    ordinal: it is what ``cell_callback`` receives and what the
    telemetry bus keys events on.
    """

    index: int
    fn: Callable
    args: Tuple = ()

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


def fifo_schedule(tasks: Sequence[CellTask]) -> List[int]:
    """The default schedule: submit cells in task-list order."""
    return list(range(len(tasks)))


class CellExecutor:
    """Submit/collect wrapper over a process pool, with prompt aborts.

    ``workers=None`` lets the pool pick (CPU count); ``workers <= 1``
    executes inline in the calling thread (no pool, no pickling). The
    pool is created lazily on the first parallel submission, so an
    executor constructed and never used costs nothing.

    Use as a context manager for the common case: ``__exit__`` waits
    for completion on the clean path and cancels promptly when exiting
    on an exception.
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
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            try:
                return self._pool.submit(task.fn, *task.args)
            except BrokenProcessPool:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                return self._pool.submit(task.fn, *task.args)

    def submit(self, task: CellTask) -> "CellHandle":
        """Submit one cell; inline executors run it before returning."""
        if self._cancelled:
            raise RuntimeError("executor was cancelled")
        if self.inline:
            return CellHandle(task, result=task.run())
        return CellHandle(task, future=self._pool_submit(task))

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

    def __enter__(self) -> "CellExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Wait on the clean path; cancel promptly on an exception."""
        if exc_type is not None:
            self.cancel()
        else:
            self.shutdown(wait=True)


class CellHandle:
    """A submitted cell: resolves to its result (or raises its error)."""

    def __init__(self, task: CellTask, future=None, result=None) -> None:
        self.task = task
        self._future = future
        self._result = result

    def result(self):
        """Block until the cell finishes and return its result."""
        if self._future is not None:
            return self._future.result()
        return self._result

    def done(self) -> bool:
        """True once the cell has finished (inline cells always have)."""
        if self._future is not None:
            return self._future.done()
        return True


def execute_cells(
    tasks: Sequence[CellTask],
    workers: Optional[int] = None,
    cell_callback: Optional[Callable[[int, object], None]] = None,
    schedule: Optional[Callable[[Sequence[CellTask]], Sequence[int]]] = None,
) -> List:
    """Run every task and return results aligned with the task list.

    ``cell_callback(task.index, result)`` fires once per cell in *task
    order* — a cell that finishes early waits for its predecessors'
    callbacks, which is what lets alert rules abort deterministically.
    Any exception (from a cell or the callback) cancels all pending
    cells promptly and propagates.

    ``schedule`` permutes the submission order only (see module docs);
    it must return a permutation of ``range(len(tasks))``.
    """
    tasks = list(tasks)
    order = list((schedule or fifo_schedule)(tasks))
    if sorted(order) != list(range(len(tasks))):
        raise ValueError(
            "schedule must return a permutation of range(len(tasks)), "
            f"got {order!r} for {len(tasks)} tasks"
        )
    results: List = [None] * len(tasks)
    finished = [False] * len(tasks)
    flushed = 0

    def flush() -> None:
        """Fire callbacks for the finished prefix, in task order."""
        nonlocal flushed
        while flushed < len(tasks) and finished[flushed]:
            if cell_callback is not None:
                cell_callback(
                    tasks[flushed].index, results[flushed]
                )
            flushed += 1

    executor = CellExecutor(workers)
    if executor.inline:
        # No pool to cancel: an exception simply stops the loop before
        # later cells start, which is already the prompt abort.
        for position in order:
            results[position] = tasks[position].run()
            finished[position] = True
            flush()
        return results
    with executor:
        handles: List[Optional[CellHandle]] = [None] * len(tasks)
        for position in order:
            handles[position] = executor.submit(tasks[position])
        for position in range(len(tasks)):
            results[position] = handles[position].result()
            finished[position] = True
            flush()
    return results
