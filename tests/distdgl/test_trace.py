"""Sampling traces: sharing, lifetime, bounds, and what they may hold."""

import gc
import weakref

import numpy as np
import pytest

from repro.distdgl import DistDglEngine, engine as engine_module
from repro.distdgl import trace as trace_module
from repro.distdgl.trace import TraceError
from repro.experiments import clear_cache
from repro.experiments import cache as partition_cache
from repro.gnn import Block, MiniBatch
from repro.graph import VertexSplit, load_dataset, random_split
from repro.partitioning import RandomVertexPartitioner, VertexPartition


@pytest.fixture(scope="module")
def graph():
    return load_dataset("OR", "tiny")


@pytest.fixture(scope="module")
def split(graph):
    return random_split(graph, seed=7)


@pytest.fixture
def partition(graph):
    return RandomVertexPartitioner().partition(graph, 4, seed=0)


@pytest.fixture(autouse=True)
def fresh_traces():
    clear_cache()
    yield
    clear_cache()


def make_engine(partition, split, **kw):
    defaults = dict(
        feature_size=16, hidden_dim=16, num_layers=2,
        global_batch_size=32, seed=0,
    )
    defaults.update(kw)
    return DistDglEngine(partition, split, **defaults)


def epoch_seconds(engine):
    return [r.epoch_seconds for r in engine.run_training(1)]


class TestSharing:
    def test_only_what_is_sampled_keys_a_trace(self, partition, split):
        base = make_engine(partition, split)
        assert make_engine(
            partition, split, arch="gat", feature_size=512, hidden_dim=8,
            compression="int8",
        )._trace is base._trace
        for change in (
            dict(seed=1), dict(global_batch_size=16), dict(num_layers=3),
            dict(cache_fraction=0.1), dict(fanouts=(3, 3)),
        ):
            assert make_engine(partition, split, **change)._trace is not (
                base._trace
            )
        other_split = VertexSplit(split.train[:-1], split.valid, split.test)
        assert make_engine(partition, other_split)._trace is not base._trace

    def test_equal_partitions_do_not_share(self, graph, partition, split):
        twin = VertexPartition(graph, partition.assignment.copy(), 4)
        assert make_engine(twin, split)._trace is not (
            make_engine(partition, split)._trace
        )

    def test_seedless_engines_stay_private(self, partition, split):
        one = make_engine(partition, split, seed=None)
        two = make_engine(partition, split, seed=None)
        assert one._trace is not two._trace
        assert not trace_module._TRACES.get(partition)

    def test_replay_does_not_sample(self, partition, split, monkeypatch):
        first = epoch_seconds(make_engine(partition, split))

        def no_sampling(*args, **kwargs):
            raise AssertionError("a replaying engine sampled")

        monkeypatch.setattr(engine_module, "sample_layers", no_sampling)
        assert epoch_seconds(make_engine(partition, split)) == first


class TestIdleWorkers:
    """k > |train|: most workers have no training vertex and sit idle."""

    def test_idle_workers_cost_nothing_but_the_barrier(self, graph):
        split = random_split(graph, seed=7)
        few = VertexSplit(split.train[:5], split.valid, split.test)
        partition = RandomVertexPartitioner().partition(graph, 16, seed=0)
        engine = make_engine(partition, few, global_batch_size=8)
        pools = engine.train_per_worker
        assert len(pools) == 16
        assert sorted(np.concatenate(pools)) == sorted(few.train)
        for w, pool in enumerate(pools):
            assert (partition.assignment[pool] == w).all()
        busy = [w for w, pool in enumerate(pools) if pool.size]
        assert 0 < len(busy) <= 5
        step = engine.run_step()
        (sample, fetch, forward, backward, update) = (
            record.per_machine_seconds
            for record in engine.cluster.timeline.records
        )
        idle = np.setdiff1d(np.arange(16), busy)
        for phase in (sample, fetch, forward):
            assert (phase[idle] == 0).all() and (phase[busy] > 0).all()
        assert (backward[idle] > 0).all()  # the all-reduce
        assert (update > 0).all()
        assert step.input_vertex_balance >= 1.0
        counts = engine._trace.steps[0]
        assert counts.workers.tolist() == busy
        assert counts.sample_owners.shape == (len(busy), 16)

    def test_memory_ledger_counts_each_edge_on_its_owners(self, graph):
        partition = RandomVertexPartitioner().partition(graph, 16, seed=0)
        engine = make_engine(partition, random_split(graph, seed=7))
        owner = partition.assignment
        edges = graph.undirected_edges()
        for w in range(16):
            touches = (owner[edges[:, 0]] == w) | (owner[edges[:, 1]] == w)
            assert engine._local_edges_per_worker[w] == touches.sum()
            assert engine._owned_per_worker[w] == (owner == w).sum()


class TestLifetime:
    def _recorded_trace(self, partition, split):
        engine = make_engine(partition, split)
        engine.run_step()
        return weakref.ref(engine._trace)

    def test_clear_cache_drops_every_trace(self, partition, split):
        ref = self._recorded_trace(partition, split)
        assert ref() is not None
        clear_cache()
        gc.collect()
        assert ref() is None

    def test_trace_dies_with_its_partition(self, graph, split):
        partition = RandomVertexPartitioner().partition(graph, 4, seed=0)
        ref = self._recorded_trace(partition, split)
        del partition
        gc.collect()
        assert ref() is None

    def test_partition_lru_eviction_drops_the_trace(
        self, graph, split, monkeypatch
    ):
        monkeypatch.setattr(partition_cache, "CACHE_CAPACITY", 1)
        partition, _ = partition_cache.cached_vertex_partition(
            graph, "random", 4
        )
        ref = self._recorded_trace(partition, split)
        del partition
        partition_cache.cached_vertex_partition(graph, "random", 8)
        gc.collect()
        assert ref() is None

    def test_traces_per_partition_are_bounded(self, partition, split):
        first = make_engine(partition, split, global_batch_size=1)._trace
        for batch in range(2, trace_module.TRACES_PER_PARTITION + 2):
            make_engine(partition, split, global_batch_size=batch)
        traces = trace_module._TRACES[partition]
        assert len(traces) == trace_module.TRACES_PER_PARTITION
        assert first not in traces.values()

    def test_full_trace_stops_growing(self, partition, split, monkeypatch):
        reference = epoch_seconds(make_engine(partition, split, seed=4))
        clear_cache()
        monkeypatch.setattr(trace_module, "TRACE_BYTE_LIMIT", 1)
        engine = make_engine(partition, split, seed=4)
        trace = engine._trace
        assert epoch_seconds(engine) == reference
        assert len(trace.steps) == 1 and trace.full
        assert engine._trace is None  # went private past the bound
        assert epoch_seconds(make_engine(partition, split, seed=4)) == (
            reference
        )
        assert len(trace.steps) == 1


class TestContents:
    def test_a_trace_holds_counts_not_batches(self, partition, split):
        engine = make_engine(partition, split, cache_fraction=0.1)
        engine.run_training(1)
        trace = engine._trace
        seen, stack, arrays = set(), [trace], []
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (Block, MiniBatch, VertexPartition))
            if isinstance(obj, np.ndarray):
                arrays.append(obj)
            stack.extend(gc.get_referents(obj))
        k = partition.num_partitions
        assert arrays and all(a.size <= 4 * 2 * k + k * k for a in arrays)
        assert trace.nbytes < 2048 * len(trace.steps)

    def test_recorded_arrays_are_read_only(self, partition, split):
        engine = make_engine(partition, split)
        engine.run_step()
        counts = engine._trace.steps[0]
        arrays = [f for f in counts if isinstance(f, np.ndarray)]
        assert len(arrays) == 5
        for array in arrays:
            with pytest.raises(ValueError):
                array[...] = 0
        with pytest.raises(AttributeError):
            counts.active = ()


class TestInconsistency:
    """Real exceptions (these must fire under ``python -O`` too)."""

    def test_replayed_step_with_other_workers_raises(self, partition, split):
        engine = make_engine(partition, split)
        engine.run_step()
        steps = engine._trace.steps
        steps[0] = steps[0]._replace(workers=np.array([0, 1]))
        with pytest.raises(TraceError, match="step 0"):
            make_engine(partition, split).run_step()

    def test_same_key_different_k_raises(self, partition, split):
        make_engine(partition, split)
        partition.num_partitions = 8
        with pytest.raises(TraceError, match="4 workers"):
            make_engine(partition, split)

    def test_failed_step_leaves_the_stream_untouched(
        self, partition, split, monkeypatch
    ):
        def step_seconds(engine, steps):
            return [engine.run_step().step_seconds for _ in range(steps)]

        reference = step_seconds(make_engine(partition, split, seed=6), 4)
        clear_cache()
        engine = make_engine(partition, split, seed=6)
        real = engine_module.sample_layers
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "sample_layers", failing)
        with pytest.raises(KeyboardInterrupt):
            engine.run_step()
        assert not engine._trace.steps
        # The same engine retries the step, another one extends the
        # trace, and the first replays what the other recorded.
        assert step_seconds(engine, 1) == reference[:1]
        assert step_seconds(make_engine(partition, split, seed=6), 4) == (
            reference
        )
        assert len(engine._trace.steps) == 4
        assert step_seconds(engine, 3) == reference[1:]
