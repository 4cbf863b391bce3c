"""Tests for neighbourhood sampling."""

import numpy as np
import pytest

from repro.distdgl import DistDglEngine
from repro.gnn import build_model, default_fanouts, sample_blocks
from repro.graph import random_split
from repro.partitioning import (
    EdgePartition,
    RandomEdgePartitioner,
    RandomVertexPartitioner,
)


class TestDefaultFanouts:
    def test_paper_values(self):
        assert default_fanouts(2) == (25, 20)
        assert default_fanouts(3) == (15, 10, 5)
        assert default_fanouts(4) == (10, 10, 5, 5)

    def test_unsupported_depth(self):
        with pytest.raises(ValueError):
            default_fanouts(5)


class TestSampleBlocks:
    def test_block_count_matches_layers(self, tiny_or, rng):
        mb = sample_blocks(tiny_or, np.array([0, 1, 2]), (5, 5), rng)
        assert len(mb.blocks) == 2

    def test_seeds_are_final_destinations(self, tiny_or, rng):
        seeds = np.array([5, 1, 9])
        mb = sample_blocks(tiny_or, seeds, (5, 5), rng)
        last = mb.blocks[-1]
        assert np.array_equal(
            np.sort(last.src_ids[: last.num_dst]), np.sort(seeds)
        )

    def test_prefix_convention(self, tiny_or, rng):
        mb = sample_blocks(tiny_or, np.arange(10), (5, 5, 5), rng)
        for outer, inner in zip(mb.blocks[:-1], mb.blocks[1:]):
            # dst of the inner (later) layer == the next frontier's prefix.
            assert np.array_equal(
                outer.src_ids[: outer.num_dst], inner.src_ids
            )

    def test_fanout_respected(self, star_graph, rng):
        # Hub 0 has degree 19; fanout 5 caps its sampled in-edges.
        mb = sample_blocks(star_graph, np.array([0]), (5,), rng)
        assert mb.blocks[0].num_edges <= 5

    def test_low_degree_keeps_all_neighbors(self, path_graph, rng):
        mb = sample_blocks(path_graph, np.array([5]), (10,), rng)
        assert mb.blocks[0].num_edges == 2  # both path neighbours

    def test_sampled_edges_are_real(self, tiny_or, rng):
        mb = sample_blocks(tiny_or, np.arange(20), (8, 8), rng)
        indptr, indices = tiny_or.symmetric_csr()
        block = mb.blocks[0]
        for s, d in zip(block.edge_src[:100], block.edge_dst[:100]):
            src = int(block.src_ids[s])
            dst = int(block.src_ids[d])
            nbrs = indices[indptr[dst] : indptr[dst + 1]]
            assert src in nbrs

    def test_duplicate_seeds_deduped(self, tiny_or, rng):
        mb = sample_blocks(tiny_or, np.array([3, 3, 3]), (5,), rng)
        assert mb.seeds.tolist() == [3]

    def test_deterministic_given_rng_state(self, tiny_or):
        a = sample_blocks(
            tiny_or, np.arange(8), (5, 5), np.random.default_rng(42)
        )
        b = sample_blocks(
            tiny_or, np.arange(8), (5, 5), np.random.default_rng(42)
        )
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.src_ids, bb.src_ids)
            assert np.array_equal(ba.edge_src, bb.edge_src)

    def test_empty_seeds_rejected(self, tiny_or, rng):
        with pytest.raises(ValueError):
            sample_blocks(tiny_or, np.zeros(0, dtype=np.int64), (5,), rng)

    def test_nonpositive_fanout_rejected(self, tiny_or, rng):
        with pytest.raises(ValueError):
            sample_blocks(tiny_or, np.array([0]), (0,), rng)

    @pytest.mark.parametrize("seeds", [[-3, 2], [-1], ["n"], [0, "n", 4]])
    def test_out_of_range_seeds_rejected(self, tiny_or, rng, seeds):
        n = tiny_or.num_vertices
        seeds = np.array([n if s == "n" else s for s in seeds])
        message = rf"seeds must lie in \[0, {n}\)"
        with pytest.raises(ValueError, match=message):
            sample_blocks(tiny_or, seeds, (5, 5), rng)

    def test_blocks_feed_model(self, tiny_or, rng):
        mb = sample_blocks(tiny_or, np.arange(12), (5, 5), rng)
        model = build_model("sage", 6, 8, 3, 2, seed=0)
        x = rng.normal(size=(tiny_or.num_vertices, 6))
        logits = model.forward(mb.blocks, x[mb.input_ids])
        assert logits.shape == (12, 3)


def test_cold_sampling_path_makes_no_hash_unique_call(tiny_or, monkeypatch):
    """numpy >= 2.3 hashes inside a 1-D ``np.unique``; the cold path —
    a first-time DistDGL step at k = 4, ``sample_blocks`` and
    ``replica_pairs`` — goes through the sort-based ``sorted_unique``."""
    split = random_split(tiny_or, seed=0)
    engine = DistDglEngine(
        RandomVertexPartitioner().partition(tiny_or, 4, seed=0), split,
        num_layers=4, global_batch_size=64, seed=0,
    )
    cut = RandomEdgePartitioner().partition(tiny_or, 4, seed=0)
    fresh = EdgePartition(tiny_or, cut.edges, cut.assignment, 4)

    def hashing(*args, **kwargs):
        raise AssertionError("np.unique called on the cold sampling path")

    monkeypatch.setattr(np, "unique", hashing)
    engine.run_step()
    assert len(engine._trace.steps) == 1  # sampled, not replayed
    sample_blocks(
        tiny_or, split.train[:64], (10, 10, 5, 5), np.random.default_rng(0)
    )
    assert fresh.replica_pairs().shape[1] == 2
