"""Multi-tenant sweep scheduler: priority + fair share + cell dedup.

The scheduler is the daemon's core. Jobs are admitted (bounded queue —
see :class:`QueueFullError`), expanded into cells, and queued under a
two-level discipline:

* **priority** — higher-priority cells always run first;
* **fair share** — within one priority class, tenants take turns
  round-robin, so one tenant's thousand-cell job cannot starve another
  tenant's two-cell job at the same priority.

Cells are deduplicated across jobs by *content key* —
:meth:`~repro.experiments.CellSpec.key` on the graph's content
fingerprint (the identity the partition cache uses too): the spec
enumerates every knob that changes a cell's records. When two jobs
contain an identical cell, it computes once and the result fans out to every subscriber job; completed-cell results stay
in a bounded LRU so a resubmitted sweep is served from cache. Every
simulation is deterministic, so fanned-out records are byte-identical
to a fresh run.

Execution rides the extracted
:class:`~repro.experiments.executor.CellExecutor`: ``workers`` runner
threads each drive one cell at a time (inline for ``workers <= 1``,
through a process pool otherwise). Per-job progress is replayed onto a
per-job telemetry bus directory, so ``repro obs watch <job>/bus``
works unchanged against a running job.

Memory is bounded everywhere a burst could grow it: the pending-cell
queue (admission control), the completed-cell result cache (LRU), and
the finished-job store (oldest evicted first).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Tuple, Union

from ..experiments import (
    ENGINES,
    CellExecutor,
    CellIO,
    CellTask,
    run_cell,
    save_records,
)
from ..graph import load_dataset, random_split
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
    """One unique cell: its task, queue position and subscribers."""

    key: Tuple
    task: CellTask
    engine: str
    priority: int
    tenant: str
    state: str = "pending"  # pending | running
    subscribers: List[Tuple[str, int]] = field(default_factory=list)
    wall_seconds: float = 0.0
    enqueued_at: float = field(default_factory=time.perf_counter)
    wait_seconds: float = 0.0


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
        max_cached_cells: int = DEFAULT_MAX_CACHED_CELLS,
        max_finished_jobs: int = DEFAULT_MAX_FINISHED_JOBS,
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
        self.max_cached_cells = max_cached_cells
        self.max_finished_jobs = max_finished_jobs
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
        #: Per-job server-side trace sinks (trace level only):
        #: admission/dispatch span events keyed by job and tenant.
        self._trace_sinks: Dict[str, JsonlSink] = {}

        self._cond = threading.Condition()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._rulesets: Dict[str, RuleSet] = {}
        self._buses: Dict[str, BusWriter] = {}
        self._cells: Dict[Tuple, _Cell] = {}
        self._done: "OrderedDict[Tuple, List]" = OrderedDict()
        #: priority -> tenant -> queued cell keys.
        self._queues: Dict[int, Dict[str, Deque[Tuple]]] = {}
        #: priority -> tenant round-robin rotation.
        self._rotation: Dict[int, Deque[str]] = {}
        self._pending_count = 0
        self._running_count = 0
        self._dedup_hits_total = 0
        self._cells_computed_total = 0
        self._job_seq = 0
        self._cell_seq = 0
        self._graphs: Dict[Tuple, object] = {}
        self._splits: Dict[Tuple, object] = {}
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
        :meth:`start`. Bus writers for unfinished jobs are closed so
        every stream is flushed.
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
            for writer in self._buses.values():
                writer.close()
            self._buses.clear()
            for sink in self._trace_sinks.values():
                sink.close()
            self._trace_sinks.clear()
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
            ruleset = None
            if spec.rules is not None:
                ruleset = RuleSet.from_dict(spec.rules)
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
            if self._pending_count + fresh > self.max_pending_cells:
                self.metrics.admission_rejected("queue-full")
                raise QueueFullError(
                    self._pending_count, self.max_pending_cells,
                    self._retry_after(),
                )
            self._job_seq += 1
            job_id = f"job-{self._job_seq:06d}"
            job_dir = os.path.join(self.data_dir, job_id)
            bus_dir = os.path.join(job_dir, "bus")
            job = Job(id=job_id, spec=spec, bus_dir=bus_dir, cells=cells)
            writer = BusWriter(bus_dir, "server")
            writer.sweep_start(
                spec.num_cells,
                graphs=[spec.graph],
                machine_counts=list(spec.machine_counts),
                configs=len(spec.params),
                job=job_id,
                tenant=spec.tenant,
            )
            self._jobs[job_id] = job
            self._buses[job_id] = writer
            if ruleset is not None:
                self._rulesets[job_id] = ruleset
            self.metrics.job_admitted(spec.tenant)
            if self.obs_level == "trace":
                self._trace_sinks[job_id] = JsonlSink(
                    os.path.join(self.data_dir, job_id, "trace.jsonl")
                )
            cached: List[Tuple[int, Tuple]] = []
            for local, (key, cell_spec) in enumerate(zip(keys, cells)):
                if key in self._done:
                    self._done.move_to_end(key)
                    job.dedup_hits += 1
                    self._dedup_hits_total += 1
                    self.metrics.dedup_hit(spec.tenant)
                    cached.append((local, key))
                elif key in self._cells:
                    self._cells[key].subscribers.append(
                        (job_id, local)
                    )
                    job.dedup_hits += 1
                    self._dedup_hits_total += 1
                    self.metrics.dedup_hit(spec.tenant)
                else:
                    self._enqueue_cell(
                        spec, graph, split, key, cell_spec, job_id
                    )
                    self._cells[key].subscribers.append(
                        (job_id, local)
                    )
            self._trace_event(
                job_id, "span", "serve.admission",
                cells=len(keys), dedup_hits=job.dedup_hits,
            )
            if any(r is None for r in job.results):
                job.state = "running" if self._started else "queued"
            # Serve cache hits after the job is fully wired up, so a
            # fully-cached job completes (and closes its bus) cleanly.
            for local, key in cached:
                self._deliver_to(job_id, local, self._done[key], 0.0)
            self._cond.notify_all()
            return job

    def _retry_after(self) -> int:
        """Drain-time hint in seconds for a 429 response."""
        backlog = self._pending_count + self._running_count
        return max(1, (backlog + self.workers - 1) // self.workers)

    def _inputs(self, spec):
        """Load (or fetch) the spec's graph and, for an engine that
        trains on one, its deterministic train split; both cached per
        content key."""
        key = (spec.graph, spec.scale, spec.seed)
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = load_dataset(
                spec.graph, spec.scale, seed=spec.seed
            )
        if not ENGINES[spec.engine].needs_split:
            return graph, None
        split = self._splits.get(key)
        if split is None:
            split = self._splits[key] = random_split(graph, seed=spec.seed)
        return graph, split

    def _enqueue_cell(
        self, spec, graph, split, key, cell_spec, job_id
    ) -> None:
        """Create a fresh pending cell and queue it (lock held).

        At trace level the cell's engine events stream to a per-cell
        JSONL file under the *submitting* job's directory, stamped with
        that job's ``job``/``tenant`` trace context (dedup subscribers
        that arrive later share the computation, so attribution goes to
        the job that caused it).
        """
        self._cell_seq += 1
        seq = self._cell_seq
        io = CellIO(cell=seq)
        if self.obs_level == "trace":
            job_dir = os.path.join(self.data_dir, job_id)
            io = CellIO(
                obs_level="trace",
                cell=seq,
                trace_out=os.path.join(
                    job_dir, f"trace-cell-{seq:06d}.jsonl"
                ),
                trace_ctx={"job": job_id, "tenant": spec.tenant},
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
        self._cells[key] = cell
        tenants = self._queues.setdefault(spec.priority, {})
        queue = tenants.get(spec.tenant)
        if queue is None:
            queue = tenants[spec.tenant] = deque()
            self._rotation.setdefault(
                spec.priority, deque()
            ).append(spec.tenant)
        elif spec.tenant not in self._rotation[spec.priority]:
            self._rotation[spec.priority].append(spec.tenant)
        queue.append(key)
        self._pending_count += 1

    # ------------------------------------------------------ execution
    def _pop_next_key(self) -> Optional[Tuple]:
        """Next cell to run: highest priority, tenants round-robin
        within it (lock held). Skips stale entries for cells that were
        dropped (cancel/abort) after queueing."""
        for priority in sorted(self._queues, reverse=True):
            tenants = self._queues[priority]
            rotation = self._rotation.get(priority, deque())
            attempts = len(rotation)
            while attempts > 0:
                attempts -= 1
                tenant = rotation[0]
                queue = tenants.get(tenant)
                while queue:
                    key = queue.popleft()
                    cell = self._cells.get(key)
                    if cell is not None and cell.state == "pending":
                        rotation.rotate(-1)
                        self._pending_count -= 1
                        if not queue:
                            del tenants[tenant]
                        return key
                # Tenant drained: retire it from the rotation.
                rotation.popleft()
                tenants.pop(tenant, None)
            if not tenants:
                del self._queues[priority]
                self._rotation.pop(priority, None)
        return None

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
                cell.state = "running"
                cell.wait_seconds = max(
                    time.perf_counter() - cell.enqueued_at, 0.0
                )
                self._running_count += 1
                task = cell.task
                for job_id, local in cell.subscribers:
                    self._trace_event(
                        job_id, "span-begin", "serve.dispatch",
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
                self._running_count -= 1
                self._finish_cell(key, records, error, wall)
                self._cond.notify_all()
            if self._stop:
                return

    def _finish_cell(self, key, records, error, wall: float) -> None:
        """Record a cell result and fan it out (lock held)."""
        cell = self._cells.pop(key, None)
        if cell is None:
            return
        cell.wall_seconds = wall
        if error is None:
            self._cells_computed_total += 1
            self.metrics.cell_finished(
                cell.engine, cell.wait_seconds, wall
            )
            self._done[key] = records
            self._done.move_to_end(key)
            while len(self._done) > self.max_cached_cells:
                self._done.popitem(last=False)
        for job_id, local in cell.subscribers:
            if error is not None:
                self._fail_job(job_id, error)
            else:
                self._deliver_to(job_id, local, records, wall)

    def _deliver_to(
        self, job_id: str, local: int, records: List, wall: float
    ) -> None:
        """Land one cell's records on one subscriber job (lock held)."""
        job = self._jobs.get(job_id)
        if job is None or job.finished or job.results[local] is not None:
            return
        job.results[local] = records
        job.cells_done += 1
        spec = job.spec
        if job.cells_done == 1:
            self.metrics.first_record(
                max(time.perf_counter() - job.admitted_perf, 0.0)
            )
        self._trace_event(
            job_id, "span-end", "serve.dispatch",
            cell=local, seconds=round(wall, 9),
            records=len(records),
        )
        cell = job.cells[local]
        writer = self._buses.get(job_id)
        if writer is not None:
            graph_name = records[0].graph if records else spec.graph
            writer.cell_start(
                local, spec.engine, graph_name, cell.partitioner,
                cell.num_machines, len(cell.grid),
            )
            for index, record in enumerate(records):
                writer.record_done(local, index, record, spec.engine)
            writer.cell_done(local, len(records), wall)
        ruleset = self._rulesets.get(job_id)
        if ruleset is not None:
            firings = ruleset.evaluate_records(records)
            for index, finding in enumerate(firings):
                job.findings.append(finding.to_dict())
                if writer is not None:
                    writer.finding(local, index, finding)
            if spec.abort_on and any(
                severity_at_least(f.severity, spec.abort_on)
                for f in firings
            ):
                self._abort_job(
                    job, "aborted",
                    "alert rule fired at or above "
                    f"{spec.abort_on!r}",
                )
                return
        if all(r is not None for r in job.results):
            self._complete_job(job)

    def _complete_job(self, job: Job) -> None:
        """Mark done, persist records, close the bus (lock held)."""
        job.state = "done"
        job.finished_at = time.time()
        records_path = os.path.join(
            self.data_dir, job.id, "records.json"
        )
        save_records(job.records(), records_path)
        self.metrics.job_finished("done")
        self._close_job_bus(job.id)
        self._close_job_trace(job.id)
        self._evict_finished()

    def _fail_job(self, job_id: str, error: str) -> None:
        """A cell errored: fail the job and drop its queue (lock held)."""
        job = self._jobs.get(job_id)
        if job is None or job.finished:
            return
        job.error = error
        self._abort_job(job, "failed", error)

    def _abort_job(self, job: Job, state: str, reason: str) -> None:
        """Terminal stop: unsubscribe every pending cell (lock held).

        Pending cells this job exclusively owns are dropped from the
        queue immediately — this is the promptness contract behind
        alert-rule aborts; running cells finish in the background and
        only feed the dedup cache.
        """
        job.state = state
        job.error = job.error or reason
        job.finished_at = time.time()
        self.metrics.job_finished(state)
        self._unsubscribe(job.id)
        self._close_job_bus(job.id)
        self._close_job_trace(job.id)
        self._evict_finished()

    def _unsubscribe(self, job_id: str) -> None:
        """Remove the job from every cell; drop orphans (lock held)."""
        orphaned = []
        for key, cell in self._cells.items():
            cell.subscribers = [
                s for s in cell.subscribers if s[0] != job_id
            ]
            if not cell.subscribers and cell.state == "pending":
                orphaned.append(key)
        for key in orphaned:
            del self._cells[key]
            self._pending_count -= 1
            # Queue entries for the key become stale and are skipped
            # by _pop_next_key.

    def _close_job_bus(self, job_id: str) -> None:
        """Flush and drop the job's bus writer (lock held)."""
        writer = self._buses.pop(job_id, None)
        if writer is not None:
            writer.close()

    def _close_job_trace(self, job_id: str) -> None:
        """Flush and drop the job's server trace sink (lock held)."""
        sink = self._trace_sinks.pop(job_id, None)
        if sink is not None:
            sink.close()

    def _trace_event(
        self, job_id: str, kind: str, name: str, **fields
    ) -> None:
        """Emit one span event to the job's server trace (lock held).

        Every event carries the ``job``/``tenant`` root context, so
        admission and dispatch spans link up with the engine spans the
        cell processes write under the same context.
        """
        sink = self._trace_sinks.get(job_id)
        if sink is None:
            return
        job = self._jobs.get(job_id)
        payload: Dict[str, object] = {
            "kind": kind,
            "name": name,
            "t": round(time.perf_counter(), 9),
            "job": job_id,
            "tenant": job.spec.tenant if job else "",
        }
        payload.update(fields)
        sink.emit(payload)

    def _evict_finished(self) -> None:
        """Bound the finished-job store (oldest evicted first)."""
        finished = [
            job_id for job_id, job in self._jobs.items() if job.finished
        ]
        excess = len(finished) - self.max_finished_jobs
        for job_id in finished[:max(excess, 0)]:
            del self._jobs[job_id]
            self._rulesets.pop(job_id, None)

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
                self._abort_job(job, "cancelled", "cancelled by client")
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
            per_tenant: Dict[str, int] = {}
            for tenants in self._queues.values():
                for tenant, queue in tenants.items():
                    live = sum(
                        1 for key in queue
                        if key in self._cells
                        and self._cells[key].state == "pending"
                    )
                    per_tenant[tenant] = (
                        per_tenant.get(tenant, 0) + live
                    )
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "pending_cells": self._pending_count,
                "running_cells": self._running_count,
                "max_pending_cells": self.max_pending_cells,
                "workers": self.workers,
                "obs_level": self.obs_level,
                "pending_by_tenant": per_tenant,
                "jobs_by_state": states,
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
            depth: Dict[Tuple[str, int], int] = {}
            for priority, tenants in self._queues.items():
                for tenant, queue in tenants.items():
                    live = sum(
                        1 for key in queue
                        if key in self._cells
                        and self._cells[key].state == "pending"
                    )
                    if live:
                        entry = (tenant, priority)
                        depth[entry] = depth.get(entry, 0) + live
            self.metrics.refresh_queue(
                depth,
                total=self._pending_count,
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
            pending = self._pending_count
            running = self._running_count
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
            sampler.stop()
            profile = sampler.build("serve.sample")
        finally:
            sampler.stop()
            with self._profiler_lock:
                self._samples_collected += sampler.samples
                self._sampler = None
        return profile
