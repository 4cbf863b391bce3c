"""Scaled-down stand-ins for the paper's five evaluation graphs (Table 1).

====  ===============  ======  ========  =======================
key   paper dataset    type    directed  stand-in generator
====  ===============  ======  ========  =======================
HW    Hollywood-2011   colla.  no        affiliation cliques
DI    Dimacs9-USA      road    yes       perturbed lattice
EN    Enwiki-2021      wiki    yes       directed pref. attach
EU    Eu-2015-tpd      web     yes       skewed R-MAT
OR    Orkut            social  no        Holme-Kim power law
====  ===============  ======  ========  =======================

Scales are configurable: ``tiny`` for unit tests, ``small`` for the default
benchmark runs, ``medium`` for slower, higher-fidelity runs. Instances are
cached per (key, scale, seed) because generation dominates test time; the
cache is an LRU of :data:`CACHE_CAPACITY` graphs, so a daemon admitting a
fresh ``seed`` per job does not grow without limit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .csr import Graph
from .generators import (
    affiliation_graph,
    powerlaw_cluster_graph,
    preferential_attachment_graph,
    road_network_graph,
    web_host_graph,
)

__all__ = [
    "CACHE_CAPACITY",
    "DATASET_KEYS",
    "DatasetSpec",
    "load_dataset",
    "dataset_specs",
]

DATASET_KEYS = ("HW", "DI", "EN", "EU", "OR")

#: Entries kept by each per-process cache keyed on a generated graph:
#: the graphs here, their partitions (``repro.experiments.cache``) and
#: the serve daemon's train splits. Generous for one sweep's working
#: set while bounding a long-running process.
CACHE_CAPACITY = 128

_SCALES = ("tiny", "small", "medium")


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata describing one stand-in dataset."""

    key: str
    paper_name: str
    category: str
    directed: bool
    generator: Callable[[str, int], Graph]

    def generate(self, scale: str = "small", seed: int = 0) -> Graph:
        """Instantiate the synthetic graph at ``scale`` with ``seed``."""
        if scale not in _SCALES:
            raise ValueError(f"unknown scale {scale!r}; pick one of {_SCALES}")
        graph = self.generator(scale, seed)
        graph.name = self.key
        return graph


def _hollywood(scale: str, seed: int) -> Graph:
    actors = {"tiny": 600, "small": 4000, "medium": 12000}[scale]
    groups = {"tiny": 260, "small": 1800, "medium": 5500}[scale]
    return affiliation_graph(
        actors,
        groups,
        mean_group_size=11.0,
        memberships_per_actor=5.0,
        seed=seed,
        name="HW",
    )


def _dimacs(scale: str, seed: int) -> Graph:
    side = {"tiny": (28, 28), "small": (90, 90), "medium": (160, 160)}[scale]
    return road_network_graph(side[0], side[1], seed=seed, name="DI")


def _enwiki(scale: str, seed: int) -> Graph:
    n = {"tiny": 800, "small": 5000, "medium": 16000}[scale]
    return preferential_attachment_graph(
        n,
        mean_out_degree=14.0,
        topic_mean_size={"tiny": 40, "small": 110, "medium": 300}[scale],
        seed=seed,
        name="EN",
    )


def _eu_web(scale: str, seed: int) -> Graph:
    n = {"tiny": 1000, "small": 7000, "medium": 18000}[scale]
    return web_host_graph(
        n,
        mean_out_degree=12.0,
        host_mean_size={"tiny": 45, "small": 120, "medium": 320}[scale],
        seed=seed,
        name="EU",
    )


def _orkut(scale: str, seed: int) -> Graph:
    n = {"tiny": 700, "small": 4000, "medium": 12000}[scale]
    m = {"tiny": 8, "small": 18, "medium": 20}[scale]
    return powerlaw_cluster_graph(
        n,
        m,
        triangle_prob=0.35,
        community_mean_size={"tiny": 35, "small": 60, "medium": 150}[scale],
        seed=seed,
        name="OR",
    )


_SPECS: Dict[str, DatasetSpec] = {
    "HW": DatasetSpec("HW", "Hollywood-2011", "collaboration", False, _hollywood),
    "DI": DatasetSpec("DI", "Dimacs9-USA", "road", True, _dimacs),
    "EN": DatasetSpec("EN", "Enwiki-2021", "wiki", True, _enwiki),
    "EU": DatasetSpec("EU", "Eu-2015-tpd", "web", True, _eu_web),
    "OR": DatasetSpec("OR", "Orkut", "social", False, _orkut),
}

#: Graphs, most-recently-used last.
_CACHE: "OrderedDict[Tuple[str, str, int], Graph]" = OrderedDict()


def dataset_specs() -> Dict[str, DatasetSpec]:
    """All dataset specifications keyed by their two-letter code."""
    return dict(_SPECS)


def load_dataset(key: str, scale: str = "small", seed: int = 0) -> Graph:
    """Generate (or fetch from cache) one of the five stand-in datasets."""
    key = key.upper()
    if key not in _SPECS:
        raise KeyError(
            f"unknown dataset {key!r}; available: {sorted(_SPECS)}"
        )
    cache_key = (key, scale, seed)
    graph = _CACHE.pop(cache_key, None)
    if graph is None:
        graph = _SPECS[key].generate(scale, seed)
    _CACHE[cache_key] = graph
    while len(_CACHE) > CACHE_CAPACITY:
        _CACHE.popitem(last=False)
    return graph
