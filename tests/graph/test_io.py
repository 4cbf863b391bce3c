"""Tests for edge-list IO."""

import numpy as np
import pytest

from repro.graph import Graph, read_edge_list


def test_roundtrip(tmp_path, two_cliques):
    path = tmp_path / "g.txt"
    np.savetxt(path, two_cliques.edges, fmt="%d", header="two cliques")
    loaded = read_edge_list(path, num_vertices=two_cliques.num_vertices)
    assert loaded.num_edges == two_cliques.num_edges
    assert np.array_equal(
        loaded.undirected_edges(), two_cliques.undirected_edges()
    )


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\n% konect\n\n0 1\n1 2\n")
    g = read_edge_list(path)
    assert g.num_edges == 2


def test_name_defaults_to_filename(tmp_path):
    path = tmp_path / "mygraph.txt"
    path.write_text("0 1\n")
    assert read_edge_list(path).name == "mygraph"


def test_directed_roundtrip(tmp_path):
    g = Graph(3, np.array([[0, 1], [1, 0], [1, 2]]), directed=True)
    path = tmp_path / "d.txt"
    np.savetxt(path, g.edges, fmt="%d")
    loaded = read_edge_list(path, directed=True)
    assert loaded.num_edges == 3


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\n42\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_edge_list(path)


def test_extra_columns_ignored(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0 1 3.5\n1 2 0.5\n")
    assert read_edge_list(path).num_edges == 2
