"""Out-of-core drive path: bit-identical to in-memory partitioning.

The equivalence contract of the chunk-store pipeline: spool the exact
stream the in-memory path consumes (``spool_graph``), drive the
partitioner through ``partition_stream``, and the assignment must be
*bit-identical* to ``partition(graph, ...)`` — for every streaming
algorithm, across seeds and store chunk sizes (chunk boundaries are an
implementation detail the ramp stitcher must hide). HDRF and 2PS-L
are compared with ``shuffle_stream=False`` since the out-of-core path
necessarily consumes the stream in natural store order.
"""

import collections
import tracemalloc

import numpy as np
import pytest

from repro.graph import Graph, rmat_edge_chunks, spool_graph
from repro.partitioning import (
    DbhPartitioner,
    FennelPartitioner,
    HdrfPartitioner,
    LdgPartitioner,
    MetisPartitioner,
    RandomEdgePartitioner,
    RestreamingLdgPartitioner,
    StreamEdgePartition,
    StreamVertexPartition,
    TwoPsLPartitioner,
    build_stream_csr,
    make_edge_partitioner,
    shuffle_stream,
    stream_degrees,
)
from repro.partitioning.chunking import iter_ramp_blocks
from repro.partitioning.outofcore import StoreGraphView
from repro.partitioning.shuffle import _coalesce

K = 8
CHUNK_SIZES = [257, 4096]
SEEDS = [0, 3]

#: name -> (factory, is_edge_partitioner)
STREAMING = {
    "hdrf": (lambda: HdrfPartitioner(shuffle_stream=False), True),
    "dbh": (DbhPartitioner, True),
    "random": (RandomEdgePartitioner, True),
    "2ps-l": (lambda: TwoPsLPartitioner(shuffle_stream=False), True),
    "ldg": (LdgPartitioner, False),
    "fennel": (FennelPartitioner, False),
    "reldg": (RestreamingLdgPartitioner, False),
}


def _rmat(directed):
    chunks = rmat_edge_chunks(
        9, 3000, seed=11, directed=directed, distinct=True
    )
    return Graph(512, np.concatenate(list(chunks)), directed=directed)


@pytest.fixture(scope="module")
def undirected_rmat():
    return _rmat(directed=False)


@pytest.fixture(scope="module")
def directed_rmat():
    return _rmat(directed=True)


def _spool(graph, tmp_path, chunk_size, undirected_view=True):
    return spool_graph(
        graph,
        str(tmp_path / f"spool-{chunk_size}-{undirected_view}"),
        chunk_size=chunk_size,
        undirected_view=undirected_view,
    )


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(STREAMING))
def test_stream_matches_in_memory(
    undirected_rmat, tmp_path, name, seed, chunk_size
):
    factory, is_edge = STREAMING[name]
    reader = _spool(undirected_rmat, tmp_path, chunk_size)
    in_memory = factory().partition(undirected_rmat, K, seed=seed)
    streamed = factory().partition_stream(reader, K, seed=seed)
    assert np.array_equal(in_memory.assignment, streamed.assignment)
    if is_edge:
        assert isinstance(streamed, StreamEdgePartition)
    else:
        assert isinstance(streamed, StreamVertexPartition)


@pytest.mark.parametrize(
    "name", ["hdrf", "random"],
)
def test_directed_graph_vertex_cut_equivalence(
    directed_rmat, tmp_path, name
):
    # The undirected-view spool is the in-memory partitioner stream,
    # directed or not.
    factory, _ = STREAMING[name]
    reader = _spool(directed_rmat, tmp_path, 997)
    in_memory = factory().partition(directed_rmat, K, seed=1)
    streamed = factory().partition_stream(reader, K, seed=1)
    assert np.array_equal(in_memory.assignment, streamed.assignment)


@pytest.mark.parametrize("name", ["ldg", "fennel"])
def test_directed_graph_edge_cut_equivalence(
    directed_rmat, tmp_path, name
):
    # Edge-cut kernels consume the symmetric CSR of the *arc* rows.
    factory, _ = STREAMING[name]
    reader = _spool(directed_rmat, tmp_path, 997, undirected_view=False)
    in_memory = factory().partition(directed_rmat, K, seed=1)
    streamed = factory().partition_stream(reader, K, seed=1)
    assert np.array_equal(in_memory.assignment, streamed.assignment)


class TestStreamCsr:
    def test_degrees_match_graph(self, undirected_rmat, tmp_path):
        reader = _spool(undirected_rmat, tmp_path, 512)
        assert np.array_equal(
            stream_degrees(reader), undirected_rmat.degrees()
        )

    def test_csr_same_indptr_and_neighbour_multisets(
        self, undirected_rmat, tmp_path
    ):
        reader = _spool(undirected_rmat, tmp_path, 512)
        indptr, indices = build_stream_csr(reader)
        ref_indptr, ref_indices = undirected_rmat.symmetric_csr()
        assert np.array_equal(indptr, ref_indptr)
        for v in range(undirected_rmat.num_vertices):
            lo, hi = indptr[v], indptr[v + 1]
            assert np.array_equal(
                np.sort(indices[lo:hi]), np.sort(ref_indices[lo:hi])
            )

    def test_view_shim_matches_graph_metadata(
        self, undirected_rmat, tmp_path
    ):
        reader = _spool(undirected_rmat, tmp_path, 512)
        view = StoreGraphView(reader)
        assert view.num_vertices == undirected_rmat.num_vertices
        assert view.num_edges == undirected_rmat.num_edges
        assert np.array_equal(view.degrees(), undirected_rmat.degrees())


class TestShuffle:
    def test_buckets_hold_exactly_their_edges(
        self, undirected_rmat, tmp_path
    ):
        reader = _spool(undirected_rmat, tmp_path, 300)
        partitioner = HdrfPartitioner(shuffle_stream=False)
        result = shuffle_stream(
            reader, partitioner, K, str(tmp_path / "buckets"), seed=0
        )
        partition = partitioner.partition(undirected_rmat, K, seed=0)
        edges = undirected_rmat.undirected_edges()
        assert np.array_equal(
            result.edge_counts, partition.edge_counts()
        )
        for p in range(K):
            expected = edges[partition.assignment == p]
            chunks = [expected[:0], *result.bucket(p).iter_chunks()]
            assert np.array_equal(np.concatenate(chunks), expected)

    def test_bucket_metadata(self, undirected_rmat, tmp_path):
        reader = _spool(undirected_rmat, tmp_path, 300)
        result = shuffle_stream(
            reader, HdrfPartitioner(), K, str(tmp_path / "b"), seed=0
        )
        bucket = result.bucket(0)
        assert bucket.num_vertices == undirected_rmat.num_vertices
        assert int(result.edge_counts.sum()) == reader.num_edges
        with pytest.raises(IndexError):
            result.bucket_path(K)

    def test_failed_shuffle_publishes_no_bucket(
        self, undirected_rmat, tmp_path
    ):
        """A stream that dies part-way must not leave stores that open
        and verify but hold a prefix of the edges."""

        class DiesAfterTwoBlocks(DbhPartitioner):
            def _assign_stream(self, reader, num_partitions, seed):
                blocks = super()._assign_stream(reader, num_partitions, seed)
                for served, block in enumerate(blocks):
                    if served == 2:
                        raise OSError("No space left on device")
                    yield block

        reader = _spool(undirected_rmat, tmp_path, 300)
        out = tmp_path / "buckets"
        with pytest.raises(OSError, match="No space left"):
            shuffle_stream(
                reader, DiesAfterTwoBlocks(), K, str(out), bucket_chunk_size=16
            )
        assert list(out.glob("part-*/chunk-*.npy"))  # it did get going
        assert not list(out.glob("part-*/manifest.json"))
        # The rerun overwrites the debris instead of refusing the directory.
        rerun = shuffle_stream(reader, DbhPartitioner(), K, str(out))
        assert int(rerun.edge_counts.sum()) == reader.num_edges
        assert all(rerun.bucket(p).verify() for p in range(K))

    def test_partitioner_that_cannot_stream_leaves_no_bucket(
        self, undirected_rmat, tmp_path
    ):
        reader = _spool(undirected_rmat, tmp_path, 300)
        out = tmp_path / "buckets"
        with pytest.raises(NotImplementedError):
            shuffle_stream(reader, make_edge_partitioner("hep10"), K, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("store_chunk", [7, 4096])
    def test_bucket_bytes_do_not_depend_on_span_size(
        self, undirected_rmat, tmp_path, store_chunk
    ):
        """One fixed assignment yielded as 1-row spans, as HDRF's ramp
        spans and as whole store blocks writes the same buckets."""
        reader = _spool(undirected_rmat, tmp_path, store_chunk)
        edges = np.concatenate(list(reader.iter_chunks()))
        assignment = np.random.default_rng(5).integers(
            0, K, edges.shape[0]
        ).astype(np.int32)
        block_sizes = [chunk.shape[0] for chunk in reader.iter_chunks()]
        spans = {
            "rows": [1] * edges.shape[0],
            "ramp": [s.shape[0] for s in iter_ramp_blocks([edges])],
            "blocks": block_sizes,
        }

        class FixedAssignment(DbhPartitioner):
            def __init__(self, sizes):
                super().__init__()
                self.bounds = np.cumsum([0] + sizes)

            def _assign_stream(self, reader, num_partitions, seed):
                for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
                    yield edges[lo:hi], assignment[lo:hi]

        written = {}
        for mode, sizes in spans.items():
            out = tmp_path / mode
            result = shuffle_stream(
                reader, FixedAssignment(sizes), K, str(out)
            )
            written[mode] = {
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file()
            }
            assert [result.bucket(p).fingerprint for p in range(K)]
        assert len(written["blocks"]) > K  # chunk files and manifests
        assert written["rows"] == written["blocks"]
        assert written["ramp"] == written["blocks"]

    def test_coalescing_buffer_holds_one_chunk_plus_one_span(self):
        rows, span, row_bytes = 4096, 1000, 16 + 4
        held = []

        def spans():
            for _ in range(40):
                pair = (
                    np.ones((span, 2), dtype=np.int64),
                    np.zeros(span, dtype=np.int32),
                )
                held.append(tracemalloc.get_traced_memory()[0])
                yield pair

        joined = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # Consumed without a loop variable, which would keep the
            # previous join alive across the next pull.
            collections.deque(map(
                lambda pair: joined.append(pair[0].shape[0]),
                _coalesce(spans(), rows),
            ), maxlen=0)
        finally:
            tracemalloc.stop()
        assert sum(joined) == 40 * span
        assert all(size >= rows for size in joined[:-1])
        # Slack for the list, the tuples and the array headers.
        assert max(held) - base <= (rows + span) * row_bytes + 4096


class TestStreamResultContainers:
    def test_edge_assignment_validated(self, undirected_rmat, tmp_path):
        reader = _spool(undirected_rmat, tmp_path, 300)
        with pytest.raises(ValueError):
            StreamEdgePartition(reader, np.zeros(3, dtype=np.int32), K)
        bad = np.full(reader.num_edges, K, dtype=np.int32)
        with pytest.raises(ValueError):
            StreamEdgePartition(reader, bad, K)

    def test_vertex_assignment_validated(
        self, undirected_rmat, tmp_path
    ):
        reader = _spool(undirected_rmat, tmp_path, 300)
        with pytest.raises(ValueError):
            StreamVertexPartition(reader, np.zeros(3, dtype=np.int32), K)

    def test_counts(self, undirected_rmat, tmp_path):
        reader = _spool(undirected_rmat, tmp_path, 300)
        part = RandomEdgePartitioner().partition_stream(reader, K, seed=0)
        counts = part.edge_counts()
        assert counts.shape == (K,)
        assert int(counts.sum()) == reader.num_edges


def test_non_streaming_partitioner_rejected(
    undirected_rmat, tmp_path
):
    reader = _spool(undirected_rmat, tmp_path, 300)
    assert not MetisPartitioner().supports_stream
    with pytest.raises(NotImplementedError):
        MetisPartitioner().partition_stream(reader, K)


def test_hdrf_stream_assignments_blocks_cover_store(
    undirected_rmat, tmp_path
):
    reader = _spool(undirected_rmat, tmp_path, 300)
    total = 0
    for edges, assignment in HdrfPartitioner().stream_assignments(
        reader, K, seed=0
    ):
        assert edges.shape[0] == assignment.shape[0]
        total += edges.shape[0]
    assert total == reader.num_edges
