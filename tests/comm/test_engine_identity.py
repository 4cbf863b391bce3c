"""Engine-level comm semantics: baselines stay bit-identical, codecs
shrink the wire monotonically, cd-r skips halo syncs, accounting stays
balanced."""

import dataclasses

import pytest

from repro.comm import CODEC_NAMES, make_codec
from repro.distdgl import DistDglEngine
from repro.distgnn import DistGnnEngine
from repro.graph import load_dataset, random_split
from repro.partitioning import HdrfPartitioner, MetisPartitioner


@pytest.fixture(scope="module")
def graph():
    return load_dataset("HW", "tiny")


@pytest.fixture(scope="module")
def split(graph):
    return random_split(graph, seed=7)


@pytest.fixture(scope="module")
def edge_partition(graph):
    return HdrfPartitioner().partition(graph, 4, seed=0)


@pytest.fixture(scope="module")
def vertex_partition(graph):
    return MetisPartitioner().partition(graph, 4, seed=0)


def gnn_engine(partition, **kw):
    defaults = dict(feature_size=32, hidden_dim=32, num_layers=2)
    defaults.update(kw)
    return DistGnnEngine(partition, **defaults)


def dgl_engine(partition, split, **kw):
    defaults = dict(
        feature_size=32, hidden_dim=32, num_layers=2,
        global_batch_size=32, seed=0,
    )
    defaults.update(kw)
    return DistDglEngine(partition, split, **defaults)


class TestNullBitIdentity:
    def test_distgnn_null_codec_matches_baseline_exactly(
        self, edge_partition
    ):
        base = gnn_engine(edge_partition)
        null = gnn_engine(
            edge_partition, compression="none", refresh_interval=1
        )
        for _ in range(2):
            a = base.simulate_epoch()
            b = null.simulate_epoch()
            assert dataclasses.asdict(a) == dataclasses.asdict(b)
        assert (
            base.cluster.timeline.phase_totals()
            == null.cluster.timeline.phase_totals()
        )

    def test_distdgl_null_codec_matches_baseline_exactly(
        self, vertex_partition, split
    ):
        base = dgl_engine(vertex_partition, split)
        null = dgl_engine(
            vertex_partition, split,
            compression="none", cache_fraction=0.0,
        )
        a = base.run_epoch()
        b = null.run_epoch()
        assert a.epoch_seconds == b.epoch_seconds
        assert a.network_bytes == b.network_bytes
        assert a.phase_seconds() == b.phase_seconds()

    def test_null_summary_accounts_raw_equals_wire(self, edge_partition):
        engine = gnn_engine(edge_partition)
        engine.simulate_epoch()
        comm = engine.comm_summary()
        assert comm.raw_bytes > 0
        assert comm.wire_bytes == comm.raw_bytes
        assert comm.saved_bytes == 0.0
        assert comm.codec_seconds == 0.0
        assert comm.accuracy_proxy_error == 0.0


class TestCompression:
    def test_distgnn_wire_bytes_shrink_monotonically(
        self, edge_partition
    ):
        bytes_by_codec = {}
        for name in CODEC_NAMES:
            engine = gnn_engine(edge_partition, compression=name)
            bytes_by_codec[name] = engine.simulate_epoch().network_bytes
        assert (
            bytes_by_codec["none"] > bytes_by_codec["fp16"]
            > bytes_by_codec["int8"] > bytes_by_codec["topk"]
        )

    def test_distgnn_wire_matches_codec_ratio(self, edge_partition):
        base = gnn_engine(edge_partition).simulate_epoch()
        fp16 = gnn_engine(
            edge_partition, compression="fp16"
        ).simulate_epoch()
        assert fp16.network_bytes == pytest.approx(
            base.network_bytes * make_codec("fp16").ratio
        )

    def test_distgnn_codec_charges_time(self, edge_partition):
        engine = gnn_engine(edge_partition, compression="int8")
        engine.simulate_epoch()
        comm = engine.comm_summary()
        assert comm.codec_seconds > 0
        assert "codec" in engine.cluster.timeline.phase_totals()

    def test_distgnn_traffic_invariant_holds_compressed(
        self, edge_partition
    ):
        engine = gnn_engine(edge_partition, compression="topk")
        engine.simulate_epoch()
        engine.cluster.check_traffic_invariant()

    def test_distdgl_wire_bytes_shrink_monotonically(
        self, vertex_partition, split
    ):
        bytes_by_codec = {}
        for name in CODEC_NAMES:
            engine = dgl_engine(
                vertex_partition, split, compression=name
            )
            bytes_by_codec[name] = engine.run_epoch().network_bytes
        assert (
            bytes_by_codec["none"] > bytes_by_codec["fp16"]
            > bytes_by_codec["int8"] > bytes_by_codec["topk"]
        )

    def test_distdgl_summary_balances(self, vertex_partition, split):
        engine = dgl_engine(
            vertex_partition, split, compression="fp16"
        )
        engine.run_epoch()
        comm = engine.comm_summary()
        assert comm.raw_bytes > 0
        assert comm.wire_bytes == pytest.approx(comm.raw_bytes * 0.5)
        assert comm.saved_bytes == pytest.approx(comm.raw_bytes * 0.5)


class TestDelayedAggregation:
    def test_stale_epochs_skip_halo_sync(self, edge_partition):
        engine = gnn_engine(edge_partition, refresh_interval=2)
        fresh = engine.simulate_epoch()  # epoch 0: syncs
        stale = engine.simulate_epoch()  # epoch 1: stale
        assert stale.network_bytes < fresh.network_bytes
        # Halo-sync time lands in the forward/backward phases; the
        # stale epoch skips it there (sync_seconds is the allreduce,
        # which always runs).
        assert stale.forward_seconds < fresh.forward_seconds
        assert stale.epoch_seconds < fresh.epoch_seconds
        comm = engine.comm_summary()
        assert comm.stale_epochs == 1
        assert comm.total_epochs == 2

    def test_refresh_one_never_goes_stale(self, edge_partition):
        engine = gnn_engine(edge_partition, refresh_interval=1)
        for _ in range(3):
            engine.simulate_epoch()
        assert engine.comm_summary().stale_epochs == 0

    def test_skipped_sync_bytes_count_as_saved(self, edge_partition):
        engine = gnn_engine(edge_partition, refresh_interval=2)
        engine.simulate_epoch()
        engine.simulate_epoch()
        comm = engine.comm_summary()
        assert comm.saved_bytes > 0
        assert comm.accuracy_proxy_error > 0

    def test_gradient_allreduce_always_runs(self, edge_partition):
        # Even a stale epoch must sync gradients (model consistency):
        # its traffic is positive, exactly the allreduce volume.
        engine = gnn_engine(edge_partition, refresh_interval=2)
        engine.simulate_epoch()
        stale = engine.simulate_epoch()
        assert stale.network_bytes > 0


class TestFeatureCache:
    def test_cache_zero_is_bit_identical(self, vertex_partition, split):
        base = dgl_engine(vertex_partition, split)
        cached = dgl_engine(vertex_partition, split, cache_fraction=0.0)
        a, b = base.run_epoch(), cached.run_epoch()
        assert a.epoch_seconds == b.epoch_seconds
        assert a.network_bytes == b.network_bytes

    def test_cache_hit_rate_reported(self, vertex_partition, split):
        engine = dgl_engine(vertex_partition, split, cache_fraction=0.5)
        engine.run_epoch()
        comm = engine.comm_summary()
        assert 0.0 < comm.cache_hit_rate <= 1.0
        assert comm.cache_hits > 0

    def test_no_cache_no_hits(self, vertex_partition, split):
        engine = dgl_engine(vertex_partition, split)
        engine.run_epoch()
        assert engine.comm_summary().cache_hit_rate == 0.0
