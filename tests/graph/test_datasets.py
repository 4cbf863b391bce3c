"""Tests for the dataset registry."""

import pytest

from repro.graph import DATASET_KEYS, dataset_specs, load_dataset


def test_all_five_keys_present():
    assert set(DATASET_KEYS) == {"HW", "DI", "EN", "EU", "OR"}
    assert set(dataset_specs()) == set(DATASET_KEYS)


def test_specs_match_paper_table1_direction():
    specs = dataset_specs()
    assert not specs["HW"].directed  # Hollywood undirected
    assert specs["DI"].directed
    assert specs["EN"].directed
    assert specs["EU"].directed
    assert not specs["OR"].directed  # Orkut undirected


@pytest.mark.parametrize("key", DATASET_KEYS)
def test_tiny_scale_loads(key):
    g = load_dataset(key, "tiny")
    assert g.num_vertices > 100
    assert g.num_edges > 100
    assert g.name == key


def test_cache_returns_same_object():
    a = load_dataset("DI", "tiny")
    b = load_dataset("DI", "tiny")
    assert a is b


def test_case_insensitive():
    assert load_dataset("di", "tiny") is load_dataset("DI", "tiny")


def test_unknown_key_rejected():
    with pytest.raises(KeyError):
        load_dataset("XX")


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        load_dataset("OR", "huge")


def test_structural_profiles():
    """Category fingerprints: road is sparse, collaboration is dense."""
    road = load_dataset("DI", "tiny")
    collab = load_dataset("HW", "tiny")
    assert road.degrees().mean() < 10
    assert collab.degrees().mean() > 3 * road.degrees().mean()


#: ``fingerprint()`` of each stand-in at ``tiny``, copied from the tree
#: before the graph layer's views moved onto integer pair keys. A
#: generator or numpy change that alters a graph fails here by name
#: instead of silently shifting every record built on it.
GOLDEN_TINY_FINGERPRINTS = {
    ("HW", 0): "95caa018e86586bcd17ad48c2e89712ef681bee1",
    ("HW", 1): "38fb9064e147e667f6c56ff442d84bf9349b8e44",
    ("DI", 0): "5268f1e79325b9e9821404b9b3c0ede4aa6b2890",
    ("DI", 1): "21ea6d7773e9dcb059ca2a07899e19bd773d7173",
    ("EN", 0): "57ef2552da76b8131f0ef080ef1b2dbd6031ec24",
    ("EN", 1): "1e1bb52c658a43129ba30661977a007def61ac78",
    ("EU", 0): "39089aff759d982b38bb2554d1369ae235bbbcd2",
    ("EU", 1): "3ae7157e7d1a657b97f24824d56ead59e16bb712",
    ("OR", 0): "f763ad7f8e69a874a65bcc6e06301b5bbdffd9c8",
    ("OR", 1): "754c67a4461c3165278542e7f48f9bc68478cc45",
}


@pytest.mark.parametrize("key, seed", sorted(GOLDEN_TINY_FINGERPRINTS))
def test_tiny_fingerprint_is_golden(key, seed):
    graph = dataset_specs()[key].generate("tiny", seed)
    assert graph.fingerprint() == GOLDEN_TINY_FINGERPRINTS[key, seed]
