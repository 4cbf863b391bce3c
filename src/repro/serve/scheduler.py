"""Multi-tenant sweep scheduler: priority + fair share + cell dedup.

The scheduler is the daemon's core. Jobs are admitted (bounded queue —
see :class:`QueueFullError`), expanded into cells, and queued under a
two-level discipline:

* **priority** — higher-priority cells always run first;
* **fair share** — within one priority class, tenants take turns
  round-robin, so one tenant's thousand-cell job cannot starve another
  tenant's two-cell job at the same priority.

The queue is held once, as the table of unfinished cells, and every
count and the pop order derive from it: a ``(priority, tenant)`` queue
holds a turn stamp while it has a pending cell, and each pop sends it
to the back. Each job holds its own bus writer, alert rules and trace
sink, closed by the one terminal step every job end takes.

Cells are deduplicated across jobs by *content key* —
:meth:`~repro.experiments.CellSpec.key` on the graph's content
fingerprint (the identity the partition cache uses too): the spec
enumerates every knob that changes a cell's records. When two jobs
contain an identical cell, it computes once and the result fans out
to every subscriber job; completed-cell results stay in a bounded LRU
so a resubmitted sweep is served from cache. Every simulation is
deterministic, so fanned-out records are byte-identical to a fresh
run.

Execution rides the extracted
:class:`~repro.experiments.executor.CellExecutor`: ``workers`` runner
threads each drive one cell at a time (inline for ``workers <= 1``,
through a process pool otherwise). Each cell delivered to a job is
published onto the job's telemetry bus by the scheduler, its one
writer, so ``repro obs watch <job>/bus`` works unchanged against a
running job.

Memory is bounded everywhere a burst could grow it: the pending-cell
queue (admission control), the completed-cell result cache (LRU), the
finished-job store (oldest evicted first), and the graphs and train
splits admission loads (LRUs of
:data:`~repro.graph.datasets.CACHE_CAPACITY` entries, so a tenant
choosing a fresh ``seed`` per job cannot grow them).
"""

from __future__ import annotations

import itertools
import os
import tempfile
import threading
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..experiments import (
    ENGINES,
    CellExecutor,
    CellIO,
    CellTask,
    run_cell,
    save_records,
)
from ..graph import load_dataset, random_split
from ..graph.datasets import CACHE_CAPACITY
from ..obs.api import LEVELS
from ..obs.live import BusWriter, RuleSet, severity_at_least
from ..obs.profiling import Profile, ThreadSampler
from ..obs.serve_metrics import ServeMetrics, render_prometheus
from ..obs.sink import JsonlSink
from .jobs import Job, SweepJobSpec

__all__ = [
    "QueueFullError",
    "SweepScheduler",
    "DEFAULT_MAX_PENDING_CELLS",
    "DEFAULT_MAX_CACHED_CELLS",
    "DEFAULT_MAX_FINISHED_JOBS",
]

#: Admission bound: queued (not yet running) cells across all jobs.
DEFAULT_MAX_PENDING_CELLS = 256

#: Completed-cell results kept for cross-job dedup (LRU).
DEFAULT_MAX_CACHED_CELLS = 512

#: Finished jobs kept queryable before eviction (oldest first).
DEFAULT_MAX_FINISHED_JOBS = 64


class QueueFullError(RuntimeError):
    """Admission refused: the pending-cell queue is at capacity.

    ``retry_after`` is a drain-time hint in seconds; the HTTP layer
    maps this to ``429 Too Many Requests`` + ``Retry-After``.
    """

    def __init__(self, pending: int, limit: int, retry_after: int) -> None:
        super().__init__(
            f"queue full: {pending} cells pending (limit {limit}); "
            f"retry in ~{retry_after}s"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after = retry_after


@dataclass
class _Cell:
    """One unique cell: its task, its queue and the ``(job, local
    cell index)`` pairs subscribed to its records."""

    key: Tuple
    task: CellTask
    engine: str
    priority: int
    tenant: str
    state: str = "pending"  # pending | running
    subscribers: List[Tuple[Job, int]] = field(default_factory=list)
    enqueued_at: float = field(default_factory=time.perf_counter)
    wait_seconds: float = 0.0

    @property
    def queue(self) -> Tuple[int, str]:
        """The ``(priority, tenant)`` queue the cell waits in."""
        return self.priority, self.tenant


class SweepScheduler:
    """Admission, queueing, dedup and execution of sweep jobs.

    Thread-safe: one lock/condition guards all state; ``workers``
    runner threads execute cells. Construct, :meth:`start`, submit
    jobs, and :meth:`stop` when done (the CLI daemon and tests both
    follow this shape).
    """

    def __init__(
        self,
        workers: int = 1,
        data_dir: Optional[str] = None,
        max_pending_cells: int = DEFAULT_MAX_PENDING_CELLS,
        obs_level: str = "off",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_pending_cells < 1:
            raise ValueError("max_pending_cells must be >= 1")
        if obs_level not in LEVELS:
            raise ValueError(
                f"unknown obs level {obs_level!r}; expected one of "
                f"{LEVELS}"
            )
        self.workers = workers
        self.data_dir = data_dir or tempfile.mkdtemp(
            prefix="repro-serve-"
        )
        self.max_pending_cells = max_pending_cells
        self.obs_level = obs_level
        # Daemon telemetry lives in a *private* registry (see
        # repro.obs.serve_metrics): the inline cell path shares this
        # process, and records' deterministic obs_metrics summaries
        # must never absorb daemon-side series. The request log rides
        # the sink layer as structured JSONL.
        request_sink = None
        if obs_level != "off":
            os.makedirs(self.data_dir, exist_ok=True)
            request_sink = JsonlSink(
                os.path.join(self.data_dir, "requests.jsonl")
            )
        self.metrics = ServeMetrics(
            enabled=obs_level != "off", sink=request_sink
        )

        self._cond = threading.Condition()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: Every unfinished unique cell, pending or running: the queue.
        self._cells: Dict[Tuple, _Cell] = {}
        #: Turn stamp per ``(priority, tenant)`` queue with a pending
        #: cell; the smallest stamp pops next within a priority.
        self._turns: Dict[Tuple[int, str], int] = {}
        self._done: "OrderedDict[Tuple, List]" = OrderedDict()
        self._dedup_hits_total = 0
        self._cells_computed_total = 0
        self._job_seq = itertools.count(1)
        self._cell_seq = itertools.count(1)
        self._turn_seq = itertools.count()
        #: Train splits by ``(graph, scale, seed)``, most recent last.
        self._splits: "OrderedDict[Tuple, object]" = OrderedDict()
        self._executor = CellExecutor(workers)
        self._threads: List[threading.Thread] = []
        self._stop = False
        self._started = False
        #: Wall-clock sampling profiler state (POST /profile). One
        #: capture at a time; cumulative sample count survives capture
        #: windows so /healthz can report profiler activity at every
        #: obs level (tracked outside the metric registry, like the
        #: heartbeat).
        self._profiler_lock = threading.Lock()
        self._sampler: Optional[ThreadSampler] = None
        self._samples_collected = 0

    # ------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the runner threads (idempotent)."""
        with self._cond:
            if self._started:
                return
            self._started = True
            self._stop = False
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._runner_loop,
                name=f"serve-runner-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, wait: bool = True) -> None:
        """Stop the runners; with ``wait``, join them and the pool.

        Running cells finish (they cannot be killed mid-simulation);
        queued cells stay queued and would resume on a future
        :meth:`start`. The bus writer and trace sink of every
        unfinished job are closed so every stream is flushed.
        """
        with self._cond:
            self._stop = True
            self._started = False
            self._cond.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=60.0)
        self._threads = []
        self._executor.shutdown(wait=wait)
        self._executor = CellExecutor(self.workers)
        with self._cond:
            for job in self._jobs.values():
                job.close_streams()
        if wait:
            self.metrics.close()

    # ------------------------------------------------------ admission
    def submit(
        self, spec: Union[SweepJobSpec, Mapping[str, object]]
    ) -> Job:
        """Admit one job (or raise): validate, dedup, queue its cells.

        Raises :class:`ValueError` on an invalid spec and
        :class:`QueueFullError` when the job's fresh cells do not fit
        the pending-cell budget — nothing is partially admitted.
        """
        try:
            if not isinstance(spec, SweepJobSpec):
                spec = SweepJobSpec.from_dict(spec)
            rules = None
            if spec.rules is not None:
                rules = RuleSet.from_dict(spec.rules)
        except (ValueError, TypeError):
            self.metrics.admission_rejected("invalid-spec")
            raise
        # Load (and cache) the graph outside the lock: slow, read-only.
        graph, split = self._inputs(spec)
        cells = spec.cell_specs()
        fingerprint = graph.fingerprint()
        keys = [cell.key(fingerprint) for cell in cells]
        with self._cond:
            fresh = sum(
                1 for key in keys
                if key not in self._done and key not in self._cells
            )
            pending = len(self._pending())
            if pending + fresh > self.max_pending_cells:
                self.metrics.admission_rejected("queue-full")
                raise QueueFullError(
                    pending, self.max_pending_cells, self._retry_after(),
                )
            job_id = f"job-{next(self._job_seq):06d}"
            bus_dir = os.path.join(self.data_dir, job_id, "bus")
            job = Job(
                id=job_id, spec=spec, bus_dir=bus_dir,
                bus=BusWriter(bus_dir, "server"), rules=rules,
            )
            job.bus.sweep_start(
                spec.num_cells,
                graphs=[spec.graph],
                machine_counts=list(spec.machine_counts),
                configs=len(spec.params),
                job=job_id,
                tenant=spec.tenant,
            )
            self._jobs[job_id] = job
            self.metrics.job_admitted(spec.tenant)
            if self.obs_level == "trace":
                job.trace = JsonlSink(
                    os.path.join(self.data_dir, job_id, "trace.jsonl")
                )
            cached: List[Tuple[int, Tuple]] = []
            for local, (key, cell_spec) in enumerate(zip(keys, cells)):
                if key in self._done or key in self._cells:
                    job.dedup_hits += 1
                    self._dedup_hits_total += 1
                    self.metrics.dedup_hit(spec.tenant)
                if key in self._done:
                    self._done.move_to_end(key)
                    cached.append((local, key))
                    continue
                if key not in self._cells:
                    self._enqueue_cell(job, graph, split, key, cell_spec)
                self._cells[key].subscribers.append((job, local))
            self._trace_event(
                job, "span", "serve.admission",
                cells=len(keys), dedup_hits=job.dedup_hits,
            )
            if any(r is None for r in job.results):
                job.state = "running" if self._started else "queued"
            # Serve cache hits after the job is fully wired up, so a
            # fully-cached job completes (and closes its bus) cleanly.
            for local, key in cached:
                self._deliver_to(job, local, self._done[key], 0.0)
            self._cond.notify_all()
            return job

    def _retry_after(self) -> int:
        """Drain-time hint in seconds for a 429 response."""
        return max(1, (len(self._cells) + self.workers - 1) // self.workers)

    def _inputs(self, spec):
        """Load (or fetch) the spec's graph and, for an engine that
        trains on one, its deterministic train split; both cached per
        ``(graph, scale, seed)`` in bounded LRUs (the graph by
        :func:`~repro.graph.load_dataset`)."""
        key = (spec.graph, spec.scale, spec.seed)
        graph = load_dataset(spec.graph, spec.scale, seed=spec.seed)
        if not ENGINES[spec.engine].needs_split:
            return graph, None
        split = self._splits.pop(key, None)
        if split is None:
            split = random_split(graph, seed=spec.seed)
        self._splits[key] = split
        while len(self._splits) > CACHE_CAPACITY:
            self._splits.popitem(last=False)
        return graph, split

    def _enqueue_cell(self, job, graph, split, key, cell_spec) -> None:
        """Create a fresh pending cell and queue it (lock held).

        At trace level the cell's engine events stream to a per-cell
        JSONL file under the *submitting* job's directory, stamped with
        that job's ``job``/``tenant`` trace context (dedup subscribers
        that arrive later share the computation, so attribution goes to
        the job that caused it).
        """
        spec = job.spec
        seq = next(self._cell_seq)
        io = CellIO(cell=seq)
        if self.obs_level == "trace":
            job_dir = os.path.join(self.data_dir, job.id)
            io = CellIO(
                obs_level="trace",
                cell=seq,
                trace_out=os.path.join(
                    job_dir, f"trace-cell-{seq:06d}.jsonl"
                ),
                trace_ctx={"job": job.id, "tenant": spec.tenant},
                profile_out=os.path.join(
                    job_dir, f"profile-cell-{seq:06d}.json"
                ),
            )
        cell = _Cell(
            key=key,
            task=CellTask(
                index=seq, fn=run_cell,
                args=(graph, split, cell_spec, io),
            ),
            engine=spec.engine, priority=spec.priority,
            tenant=spec.tenant,
        )
        if cell.queue not in self._turns:  # joins at the back
            self._turns[cell.queue] = next(self._turn_seq)
        self._cells[key] = cell

    # ------------------------------------------------------ execution
    def _pending(self) -> List[_Cell]:
        """The cells waiting to run, in admission order (lock held)."""
        return [
            cell for cell in self._cells.values()
            if cell.state == "pending"
        ]

    def _retire_drained(self) -> None:
        """Drop the turn of every queue left without a pending cell
        (lock held), so a tenant that rejoins later goes to the back."""
        waiting = {cell.queue for cell in self._pending()}
        self._turns = {
            queue: turn for queue, turn in self._turns.items()
            if queue in waiting
        }

    def _pop_next_key(self) -> Optional[Tuple]:
        """Mark the next cell running and return its key (lock held).

        Highest priority first; within it the ``(priority, tenant)``
        queue with the smallest turn stamp, and that queue's oldest
        cell. The popped queue then goes to the back, so tenants take
        turns round-robin.
        """
        pending = self._pending()
        if not pending:
            return None
        cell = min(pending, key=lambda c: (
            -c.priority, self._turns[c.queue], c.task.index
        ))
        cell.state = "running"
        self._turns[cell.queue] = next(self._turn_seq)  # to the back
        self._retire_drained()
        return cell.key

    def _runner_loop(self) -> None:
        """One runner thread: pick, execute, deliver, repeat.

        Every wakeup (working or idle) refreshes the scheduler
        heartbeat, so ``/healthz`` can report how long ago a runner
        last proved alive.
        """
        while True:
            with self._cond:
                key = None
                while not self._stop:
                    self.metrics.heartbeat()
                    key = self._pop_next_key()
                    if key is not None:
                        break
                    self._cond.wait(0.2)
                if self._stop and key is None:
                    return
                cell = self._cells[key]
                cell.wait_seconds = max(
                    time.perf_counter() - cell.enqueued_at, 0.0
                )
                task = cell.task
                for job, local in cell.subscribers:
                    self._trace_event(
                        job, "span-begin", "serve.dispatch",
                        cell=local,
                        wait_seconds=round(cell.wait_seconds, 9),
                    )
            started = time.perf_counter()
            records = None
            error = None
            try:
                records = self._executor.submit(task).result()
            except BaseException as exc:  # deliver, never kill a runner
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - started
            with self._cond:
                self._finish_cell(key, records, error, wall)
                self._cond.notify_all()
            if self._stop:
                return

    def _finish_cell(self, key, records, error, wall: float) -> None:
        """Record a cell result and fan it out (lock held)."""
        cell = self._cells.pop(key)
        if error is None:
            self._cells_computed_total += 1
            self.metrics.cell_finished(
                cell.engine, cell.wait_seconds, wall
            )
            self._done[key] = records
            self._done.move_to_end(key)
            while len(self._done) > DEFAULT_MAX_CACHED_CELLS:
                self._done.popitem(last=False)
        for job, local in cell.subscribers:
            if error is None:
                self._deliver_to(job, local, records, wall)
            elif not job.finished:
                self._end_job(job, "failed", error)

    def _deliver_to(
        self, job: Job, local: int, records: List, wall: float
    ) -> None:
        """Land one cell's records on one subscriber job (lock held)."""
        if job.finished or job.results[local] is not None:
            return
        job.results[local] = records
        job.cells_done += 1
        spec = job.spec
        if job.cells_done == 1:
            self.metrics.first_record(
                max(time.perf_counter() - job.admitted_perf, 0.0)
            )
        self._trace_event(
            job, "span-end", "serve.dispatch",
            cell=local, seconds=round(wall, 9),
            records=len(records),
        )
        firings = (
            job.rules.evaluate_records(records)
            if job.rules is not None else []
        )
        job.findings.extend(finding.to_dict() for finding in firings)
        job.bus.publish(local, records, wall, firings)
        if spec.abort_on and any(
            severity_at_least(f.severity, spec.abort_on) for f in firings
        ):
            self._end_job(
                job, "aborted",
                f"alert rule fired at or above {spec.abort_on!r}",
            )
        elif all(r is not None for r in job.results):
            self._end_job(job, "done")

    def _end_job(
        self, job: Job, state: str, error: Optional[str] = None
    ) -> None:
        """Move the job to terminal ``state`` (lock held).

        A done job saves its records under its data dir. Any other end
        unsubscribes the job from every cell, so the pending cells it
        alone wanted leave the queue at once — the promptness contract
        behind alert-rule aborts; running cells finish in the
        background and only feed the dedup cache. Either way the job's
        bus and trace are closed and old finished jobs evicted.
        """
        job.state = state
        job.error = error
        job.finished_at = time.time()
        self.metrics.job_finished(state)
        if state == "done":
            save_records(
                job.records(),
                os.path.join(self.data_dir, job.id, "records.json"),
            )
        else:
            self._unsubscribe(job)
        job.close_streams()
        self._evict_finished()

    def _unsubscribe(self, job: Job) -> None:
        """Remove the job from every cell and delete the pending cells
        no other job wants (lock held)."""
        for key, cell in list(self._cells.items()):
            cell.subscribers = [
                s for s in cell.subscribers if s[0] is not job
            ]
            if not cell.subscribers and cell.state == "pending":
                del self._cells[key]
        self._retire_drained()

    def _trace_event(self, job: Job, kind: str, name: str, **fields) -> None:
        """Emit one span event to the job's server trace (lock held).

        Every event carries the ``job``/``tenant`` root context, so
        admission and dispatch spans link up with the engine spans the
        cell processes write under the same context.
        """
        if job.trace is None:
            return
        job.trace.emit({
            "kind": kind,
            "name": name,
            "t": round(time.perf_counter(), 9),
            "job": job.id,
            "tenant": job.spec.tenant,
            **fields,
        })

    def _evict_finished(self) -> None:
        """Bound the finished-job store (oldest evicted first)."""
        finished = [
            job_id for job_id, job in self._jobs.items() if job.finished
        ]
        excess = len(finished) - DEFAULT_MAX_FINISHED_JOBS
        for job_id in finished[:max(excess, 0)]:
            del self._jobs[job_id]

    # ------------------------------------------------------- queries
    def get(self, job_id: str) -> Job:
        """The job by id; raises :class:`KeyError` when unknown."""
        with self._cond:
            return self._jobs[job_id]

    def jobs(self) -> List[Job]:
        """Every retained job, oldest first."""
        with self._cond:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """DELETE semantics: stop a queued/running job promptly."""
        with self._cond:
            job = self._jobs[job_id]
            if not job.finished:
                self._end_job(job, "cancelled", "cancelled by client")
                self._cond.notify_all()
            return job

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job reaches a terminal state (tests/CLI)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs[job_id]
                if job.finished:
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{job_id} still {job.state!r} after "
                        f"{timeout}s"
                    )
                self._cond.wait(min(remaining, 0.2))

    def queue_snapshot(self) -> Dict[str, object]:
        """The ``GET /queue`` payload: load, limits and accounting."""
        with self._cond:
            pending = self._pending()
            return {
                "pending_cells": len(pending),
                "running_cells": len(self._cells) - len(pending),
                "max_pending_cells": self.max_pending_cells,
                "workers": self.workers,
                "obs_level": self.obs_level,
                "pending_by_tenant": dict(
                    Counter(cell.tenant for cell in pending)
                ),
                "jobs_by_state": dict(
                    Counter(job.state for job in self._jobs.values())
                ),
                "dedup_hits_total": self._dedup_hits_total,
                "cells_computed_total": self._cells_computed_total,
                "cached_cells": len(self._done),
                "retry_after_hint": self._retry_after(),
            }

    def metrics_snapshot(self) -> List[Dict[str, object]]:
        """The daemon metrics snapshot, with state gauges refreshed.

        Queue depths, cache sizes and the retained-job count are
        scheduler state, not events — they are re-read under the lock
        on every snapshot so the exposition always reflects reality
        rather than the last mutation. Empty when the daemon runs with
        observability off.
        """
        with self._cond:
            pending = self._pending()
            self.metrics.refresh_queue(
                Counter((cell.tenant, cell.priority) for cell in pending),
                total=len(pending),
                capacity=self.max_pending_cells,
                cached_cells=len(self._done),
            )
        return self.metrics.snapshot()

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` body (Prometheus text format)."""
        if not self.metrics.enabled:
            return (
                "# repro-serve metrics are disabled; start the daemon "
                "with --obs-level metrics (or trace)\n"
            )
        return render_prometheus(self.metrics_snapshot())

    def healthz_snapshot(self) -> Dict[str, object]:
        """The ``GET /healthz`` payload: readiness + liveness.

        Works at every obs level (the heartbeat is tracked outside the
        metric registry): reports whether the runners were started, the
        age of the last runner heartbeat, and queue saturation — the
        three things a supervisor needs to tell "busy" from "wedged".
        """
        with self._cond:
            pending = len(self._pending())
            running = len(self._cells) - pending
            started = self._started
        age = self.metrics.heartbeat_age()
        return {
            "status": "ok",
            "started": started,
            "workers": self.workers,
            "obs_level": self.obs_level,
            "uptime_seconds": round(self.metrics.uptime(), 3),
            "scheduler_heartbeat_age_seconds": (
                None if age is None else round(age, 3)
            ),
            "pending_cells": pending,
            "running_cells": running,
            "max_pending_cells": self.max_pending_cells,
            "queue_saturation": round(
                pending / self.max_pending_cells, 4
            ),
            "profiler": self.profiler_state(),
        }

    # ------------------------------------------------------ profiling
    def profiler_state(self) -> Dict[str, object]:
        """Profiler readiness for /healthz: active flag + samples.

        ``samples_collected`` is cumulative across capture windows;
        while a capture runs it additionally includes the in-flight
        window's samples so a watcher sees the count move.
        """
        with self._profiler_lock:
            sampler = self._sampler
            collected = self._samples_collected
        if sampler is not None:
            collected += sampler.samples
        return {
            "sampling": sampler is not None,
            "samples_collected": collected,
        }

    def profile(
        self, seconds: float, interval: float = 0.01
    ) -> Profile:
        """Sample every daemon thread for ``seconds``; one at a time.

        Blocks the calling (HTTP handler) thread for the capture
        window — the ThreadingHTTPServer keeps serving meanwhile —
        and returns the folded ``mode="sample"`` profile. Raises
        :class:`RuntimeError` when a capture is already running
        (mapped to 409 by the server).
        """
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        sampler = ThreadSampler(interval=interval)
        with self._profiler_lock:
            if self._sampler is not None:
                raise RuntimeError(
                    "a profiling capture is already running"
                )
            self._sampler = sampler
        try:
            sampler.start()
            time.sleep(seconds)
        finally:
            sampler.stop()
            with self._profiler_lock:
                self._samples_collected += sampler.samples
                self._sampler = None
        return sampler.build("serve.sample")
