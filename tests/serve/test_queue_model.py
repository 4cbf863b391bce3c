"""The scheduler's queue against a reference model of its discipline.

Random submit / pop / cancel sequences drive an unstarted scheduler (so
no cell ever finishes); every pop must return the model's cell and
every snapshot count must equal the model's. A threaded variant runs
the same operations concurrently and checks that no update is lost.
"""

import sys
import tempfile
import threading
from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import SweepScheduler


class QueueModel:
    """Per-priority deques of tenants: rotate on pop, retire on drain,
    append on join."""

    def __init__(self):
        self.rotation = {}  # priority -> deque of tenants
        self.queues = {}  # (priority, tenant) -> deque of cell keys

    def push(self, priority, tenant, key):
        if (priority, tenant) not in self.queues:
            self.queues[(priority, tenant)] = deque()
            self.rotation.setdefault(priority, deque()).append(tenant)
        self.queues[(priority, tenant)].append(key)

    def pop(self):
        for priority in sorted(self.rotation, reverse=True):
            if self.rotation[priority]:
                tenant = self.rotation[priority][0]
                self.rotation[priority].rotate(-1)
                key = self.queues[(priority, tenant)][0]
                self.drop(priority, tenant, key)
                return key
        return None

    def drop(self, priority, tenant, key):
        queue = self.queues[(priority, tenant)]
        queue.remove(key)
        if not queue:
            del self.queues[(priority, tenant)]
            self.rotation[priority].remove(tenant)


submits = st.tuples(
    st.just("submit"),
    st.sampled_from(["a", "b", "c"]),
    st.integers(0, 1),
    st.lists(
        st.sampled_from(["random", "hdrf", "dbh"]),
        min_size=1, max_size=3, unique=True,
    ),
    st.integers(1, 3),
)
operations = st.lists(
    st.one_of(
        submits,
        st.tuples(st.just("pop")),
        st.tuples(st.just("cancel"), st.integers(0, 20)),
    ),
    max_size=25,
)


def _spec(tenant, priority, partitioners, epochs):
    return {
        "engine": "distgnn", "graph": "OR", "scale": "tiny",
        "partitioners": partitioners, "machines": [2],
        "params": [{"num_layers": 2}], "num_epochs": epochs,
        "tenant": tenant, "priority": priority,
    }


def _depths(scheduler):
    """``(tenant, priority) -> cells`` from the queue-depth gauges."""
    return {
        (entry["labels"]["tenant"], int(entry["labels"]["priority"])):
            int(entry["value"])
        for entry in scheduler.metrics_snapshot()
        if entry["name"] == "serve.queue_depth" and entry["value"]
    }


@settings(max_examples=60, deadline=None)
@given(operations)
def test_queue_matches_reference_model(ops):
    model = QueueModel()
    #: (partitioner, epochs) -> [priority, tenant, state, subscribers]
    cells = {}
    jobs = []  # (job id, its cell keys)
    with tempfile.TemporaryDirectory() as data_dir:
        scheduler = SweepScheduler(data_dir=data_dir, obs_level="metrics")
        for op in ops:
            if op[0] == "submit":
                _, tenant, priority, partitioners, epochs = op
                job = scheduler.submit(
                    _spec(tenant, priority, partitioners, epochs)
                )
                keys = [(name, epochs) for name in partitioners]
                jobs.append((job.id, keys))
                for key in keys:
                    if key not in cells:
                        cells[key] = [priority, tenant, "pending", set()]
                        model.push(priority, tenant, key)
                    cells[key][3].add(job.id)
            elif op[0] == "pop":
                with scheduler._cond:
                    popped = scheduler._pop_next_key()
                expected = model.pop()
                assert (
                    None if popped is None else (popped[2], popped[5])
                ) == expected
                if expected is not None:
                    cells[expected][2] = "running"
            elif jobs:
                job_id, keys = jobs[op[1] % len(jobs)]
                scheduler.cancel(job_id)
                for key in keys:
                    cell = cells.get(key)
                    if cell is None:
                        continue
                    cell[3].discard(job_id)
                    if cell[2] == "pending" and not cell[3]:
                        model.drop(cell[0], cell[1], key)
                        del cells[key]
            pending = [c for c in cells.values() if c[2] == "pending"]
            snapshot = scheduler.queue_snapshot()
            assert snapshot["pending_cells"] == len(pending)
            assert snapshot["running_cells"] == len(cells) - len(pending)
            assert snapshot["pending_by_tenant"] == Counter(
                c[1] for c in pending
            )
            assert _depths(scheduler) == Counter(
                (c[1], c[0]) for c in pending
            )
        scheduler.stop(wait=True)


def test_concurrent_submit_pop_cancel_lose_no_update(tmp_path):
    """Submitters (cancelling every third job), runner-like poppers and
    a snapshot reader at once: every cell pops exactly once, and every
    snapshot's per-tenant counts sum to its pending count."""
    scheduler = SweepScheduler(data_dir=str(tmp_path))
    popped, broken = [], []
    done = threading.Event()

    def submit(tenant):
        for epochs in range(1, 13):
            job = scheduler.submit(
                _spec(tenant, epochs % 2, ["random", "hdrf"], epochs)
            )
            if epochs % 3 == 0:
                scheduler.cancel(job.id)

    def pop():
        while not done.is_set():
            with scheduler._cond:
                key = scheduler._pop_next_key()
            if key is not None:
                popped.append(key)

    def read():
        while not done.is_set():
            snapshot = scheduler.queue_snapshot()
            if sum(snapshot["pending_by_tenant"].values()) != (
                snapshot["pending_cells"]
            ):
                broken.append(snapshot)

    submitters = [
        threading.Thread(target=submit, args=(t,)) for t in "abc"
    ]
    others = [threading.Thread(target=f) for f in (pop, pop, read)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in submitters + others:
            thread.start()
        for thread in submitters:
            thread.join(timeout=60)
    finally:
        done.set()
        for thread in others:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
        scheduler.stop(wait=True)
    assert not any(t.is_alive() for t in submitters + others)
    assert broken == []
    with scheduler._cond:
        while (key := scheduler._pop_next_key()) is not None:
            popped.append(key)
    assert len(popped) == len(set(popped))
    assert set(popped) == set(scheduler._cells)
    assert scheduler.queue_snapshot()["pending_cells"] == 0
