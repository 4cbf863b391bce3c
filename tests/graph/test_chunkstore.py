"""Tests for the on-disk edge chunk store."""

import numpy as np
import pytest

from repro.graph import (
    ChunkManifest,
    EdgeChunkReader,
    EdgeChunkWriter,
    Graph,
    rmat_edge_chunks,
    spool_edges,
    spool_graph,
)


def _edges(m, n=100, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(m, 2), dtype=np.int64)


class TestRoundTrip:
    def test_read_back_equals_stream(self, tmp_path):
        edges = _edges(1000)
        reader = spool_edges([edges], str(tmp_path / "s"), chunk_size=64)
        stored = np.concatenate(list(reader.iter_chunks()))
        assert np.array_equal(stored, edges)
        assert reader.num_edges == 1000
        assert len(reader) == 1000 // 64 + 1

    def test_chunks_are_fixed_size_with_short_tail(self, tmp_path):
        reader = spool_edges(
            [_edges(150)], str(tmp_path / "s"), chunk_size=64
        )
        sizes = [c.shape[0] for c in reader.iter_chunks()]
        assert sizes == [64, 64, 22]

    def test_append_split_does_not_matter(self, tmp_path):
        edges = _edges(500)
        a = spool_edges([edges], str(tmp_path / "one"), chunk_size=100)
        parts = np.array_split(edges, 7)
        b = spool_edges(parts, str(tmp_path / "many"), chunk_size=100)
        assert np.array_equal(
            np.concatenate(list(a.iter_chunks())),
            np.concatenate(list(b.iter_chunks())),
        )
        assert a.fingerprint == b.fingerprint

    def test_empty_stream(self, tmp_path):
        reader = spool_edges([], str(tmp_path / "s"))
        assert reader.num_edges == 0
        assert len(reader) == 0
        assert list(reader.iter_chunks()) == []
        assert reader.num_vertices == 1

    def test_inferred_vertex_count(self, tmp_path):
        reader = spool_edges(
            [np.array([[3, 7], [1, 2]])], str(tmp_path / "s")
        )
        assert reader.num_vertices == 8


class TestFingerprint:
    def test_invariant_to_chunk_size(self, tmp_path):
        edges = _edges(777)
        a = spool_edges([edges], str(tmp_path / "a"), chunk_size=64)
        b = spool_edges([edges], str(tmp_path / "b"), chunk_size=999)
        assert a.fingerprint == b.fingerprint

    def test_sensitive_to_content_and_order(self, tmp_path):
        edges = _edges(100)
        a = spool_edges([edges], str(tmp_path / "a"))
        b = spool_edges([edges[::-1]], str(tmp_path / "b"))
        assert a.fingerprint != b.fingerprint

    def test_verify_accepts_intact_store(self, tmp_path):
        reader = spool_edges(
            [_edges(300)], str(tmp_path / "s"), chunk_size=128
        )
        assert reader.verify()

    def test_verify_rejects_corrupted_chunk(self, tmp_path):
        reader = spool_edges(
            [_edges(300)], str(tmp_path / "s"), chunk_size=128
        )
        chunk_path = tmp_path / "s" / "chunk-00001.npy"
        chunk = np.load(chunk_path)
        chunk[0, 0] += 1
        np.save(str(chunk_path)[: -len(".npy")], chunk)
        assert not reader.verify()


class TestWriterContract:
    def test_refuses_existing_store(self, tmp_path):
        spool_edges([_edges(10)], str(tmp_path / "s"))
        with pytest.raises(FileExistsError):
            EdgeChunkWriter(str(tmp_path / "s"))

    def test_rejects_bad_shapes_and_ids(self, tmp_path):
        writer = EdgeChunkWriter(str(tmp_path / "s"))
        with pytest.raises(ValueError):
            writer.append(np.arange(6).reshape(2, 3))
        with pytest.raises(ValueError):
            writer.append(np.array([[-1, 0]]))

    def test_rejects_out_of_range_endpoint(self, tmp_path):
        writer = EdgeChunkWriter(str(tmp_path / "s"), num_vertices=4)
        writer.append(np.array([[0, 5]]))
        with pytest.raises(ValueError):
            writer.close()

    def test_append_after_close_rejected(self, tmp_path):
        writer = EdgeChunkWriter(str(tmp_path / "s"))
        writer.append(np.array([[0, 1]]))
        writer.close()
        with pytest.raises(RuntimeError):
            writer.append(np.array([[1, 2]]))

    def test_close_is_idempotent(self, tmp_path):
        writer = EdgeChunkWriter(str(tmp_path / "s"))
        writer.append(np.array([[0, 1]]))
        assert writer.close() == writer.close()

    def test_manifest_fields(self, tmp_path):
        spool_edges(
            [_edges(100)], str(tmp_path / "s"),
            chunk_size=32, num_vertices=100, directed=True,
        )
        manifest = ChunkManifest.load(str(tmp_path / "s"))
        assert manifest.num_edges == 100
        assert manifest.num_vertices == 100
        assert manifest.chunk_size == 32
        assert manifest.num_chunks == 4
        assert manifest.directed
        assert manifest.dtype == "int64"


class TestSpoolGraph:
    @pytest.fixture
    def graph(self):
        edges = rmat_edge_chunks(8, 500, seed=1)
        return Graph(256, np.concatenate(list(edges)), directed=True)

    def test_undirected_view_matches_partitioner_stream(self, graph, tmp_path):
        reader = spool_graph(graph, str(tmp_path / "s"), chunk_size=77)
        stored = np.concatenate(list(reader.iter_chunks()))
        assert np.array_equal(stored, graph.undirected_edges())
        assert not reader.directed
        assert reader.num_vertices == graph.num_vertices

    def test_arc_view_matches_stored_edges(self, graph, tmp_path):
        reader = spool_graph(
            graph, str(tmp_path / "s"), undirected_view=False
        )
        stored = np.concatenate(list(reader.iter_chunks()))
        assert np.array_equal(stored, graph.edges)
        assert reader.directed == graph.directed
