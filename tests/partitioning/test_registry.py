"""Tests for the partitioner registry (paper Table 2)."""

import pytest

from repro.partitioning import (
    EDGE_PARTITIONER_NAMES,
    VERTEX_PARTITIONER_NAMES,
    make_edge_partitioner,
    make_vertex_partitioner,
)


def test_six_partitioners_per_family():
    assert len(EDGE_PARTITIONER_NAMES) == 6
    assert len(VERTEX_PARTITIONER_NAMES) == 6


def test_table2_names_present():
    assert set(EDGE_PARTITIONER_NAMES) == {
        "random", "dbh", "hdrf", "2ps-l", "hep10", "hep100",
    }
    assert set(VERTEX_PARTITIONER_NAMES) == {
        "random", "ldg", "spinner", "metis", "bytegnn", "kahip",
    }


def test_factories_give_fresh_instances():
    a = make_edge_partitioner("hdrf")
    b = make_edge_partitioner("hdrf")
    assert a is not b


def test_case_insensitive_and_suffix():
    assert make_edge_partitioner("HDRF").name == "HDRF"
    assert make_edge_partitioner("random-ec").name == "Random"
    assert make_vertex_partitioner("Random-VC").name == "Random"


def test_cut_types():
    for name in EDGE_PARTITIONER_NAMES:
        assert make_edge_partitioner(name).cut_type == "vertex-cut"
    for name in VERTEX_PARTITIONER_NAMES:
        assert make_vertex_partitioner(name).cut_type == "edge-cut"


def test_categories_match_table2():
    edge = [make_edge_partitioner(name) for name in EDGE_PARTITIONER_NAMES]
    categories = {p.name: p.category for p in edge}
    assert categories["Random"] == "stateless streaming"
    assert categories["DBH"] == "stateless streaming"
    assert categories["HDRF"] == "stateful streaming"
    assert categories["2PS-L"] == "stateful streaming"
    assert categories["HEP10"] == "hybrid"
    vertex = [
        make_vertex_partitioner(name) for name in VERTEX_PARTITIONER_NAMES
    ]
    vertex_categories = {p.name: p.category for p in vertex}
    assert vertex_categories["LDG"] == "stateful streaming"
    assert vertex_categories["Metis"] == "in-memory"
    assert vertex_categories["KaHIP"] == "in-memory"


def test_unknown_names_rejected():
    with pytest.raises(KeyError):
        make_edge_partitioner("nope")
    with pytest.raises(KeyError):
        make_vertex_partitioner("nope")
