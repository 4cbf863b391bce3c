"""Behavioural tests for the six vertex-cut (edge) partitioners."""

import numpy as np
import pytest

from repro.partitioning import (
    DbhPartitioner,
    HdrfPartitioner,
    HepPartitioner,
    RandomEdgePartitioner,
    TwoPsLPartitioner,
    EDGE_PARTITIONER_NAMES,
    edge_balance,
    make_edge_partitioner,
    replication_factor,
)

ALL = [make_edge_partitioner(name) for name in EDGE_PARTITIONER_NAMES]


@pytest.mark.parametrize("partitioner", ALL, ids=lambda p: p.name)
class TestCommonContract:
    def test_every_edge_assigned_exactly_once(self, partitioner, tiny_or):
        part = partitioner.partition(tiny_or, 4, seed=0)
        assert part.assignment.shape[0] == tiny_or.undirected_edges().shape[0]
        assert (part.assignment >= 0).all()
        assert (part.assignment < 4).all()

    def test_deterministic_given_seed(self, partitioner, tiny_or):
        a = partitioner.partition(tiny_or, 4, seed=3).assignment
        b = partitioner.partition(tiny_or, 4, seed=3).assignment
        assert np.array_equal(a, b)

    def test_single_partition_degenerate(self, partitioner, tiny_or):
        part = partitioner.partition(tiny_or, 1, seed=0)
        assert (part.assignment == 0).all()
        assert replication_factor(part) == 1.0

    def test_partitioning_time_recorded(self, partitioner, tiny_or):
        partitioner.partition(tiny_or, 2, seed=0)
        assert partitioner.last_partitioning_seconds is not None
        assert partitioner.last_partitioning_seconds >= 0

    def test_rejects_zero_partitions(self, partitioner, tiny_or):
        with pytest.raises(ValueError):
            partitioner.partition(tiny_or, 0)


class TestRandom:
    def test_near_perfect_edge_balance(self, tiny_or):
        part = RandomEdgePartitioner().partition(tiny_or, 4, seed=0)
        assert edge_balance(part) < 1.1


class TestDbh:
    def test_low_degree_vertices_not_replicated(self, star_graph):
        """All star edges hash on the leaves... but every leaf has degree
        1 and its single edge lands on one partition: leaves never
        replicate, only the hub does."""
        part = DbhPartitioner().partition(star_graph, 4, seed=0)
        copies = part.copies_per_vertex()
        assert (copies[1:] <= 1).all()
        assert copies[0] > 1  # the hub pays

    def test_beats_random_on_skewed_graph(self, tiny_or):
        dbh = DbhPartitioner().partition(tiny_or, 8, seed=0)
        rnd = RandomEdgePartitioner().partition(tiny_or, 8, seed=0)
        assert replication_factor(dbh) < replication_factor(rnd)


class TestHdrf:
    def test_beats_dbh(self, tiny_or):
        hdrf = HdrfPartitioner().partition(tiny_or, 8, seed=0)
        dbh = DbhPartitioner().partition(tiny_or, 8, seed=0)
        assert replication_factor(hdrf) < replication_factor(dbh)

    def test_good_edge_balance(self, tiny_or):
        part = HdrfPartitioner().partition(tiny_or, 8, seed=0)
        assert edge_balance(part) < 1.2

    def test_lambda_zero_ignores_balance(self, tiny_or):
        greedy = HdrfPartitioner(lambda_balance=0.0)
        part = greedy.partition(tiny_or, 4, seed=0)
        # Pure replication greed clusters edges more than balanced HDRF.
        balanced = HdrfPartitioner(lambda_balance=5.0).partition(
            tiny_or, 4, seed=0
        )
        assert edge_balance(part) >= edge_balance(balanced) - 1e-9


class TestTwoPsL:
    def test_respects_balance_cap(self, tiny_or):
        part = TwoPsLPartitioner(balance_cap=1.05).partition(
            tiny_or, 4, seed=0
        )
        assert edge_balance(part) <= 1.12

    def test_balance_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="balance_cap"):
            TwoPsLPartitioner(balance_cap=0.99)
        TwoPsLPartitioner(balance_cap=1.0)  # perfect balance is allowed

    def test_better_rf_than_random(self, tiny_or):
        two_ps = TwoPsLPartitioner().partition(tiny_or, 8, seed=0)
        rnd = RandomEdgePartitioner().partition(tiny_or, 8, seed=0)
        assert replication_factor(two_ps) < replication_factor(rnd)


class TestHep:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            HepPartitioner(tau=0)

    def test_names_reflect_tau(self):
        assert HepPartitioner(10).name == "HEP10"
        assert HepPartitioner(100).name == "HEP100"

    def test_best_replication_factor(self, tiny_or):
        """HEP100 is the quality leader (paper Figure 2)."""
        hep = HepPartitioner(100).partition(tiny_or, 8, seed=0)
        hdrf = HdrfPartitioner().partition(tiny_or, 8, seed=0)
        assert replication_factor(hep) < replication_factor(hdrf)

    def test_hep100_at_least_as_good_as_hep10(self, tiny_hw):
        hep10 = HepPartitioner(10).partition(tiny_hw, 8, seed=0)
        hep100 = HepPartitioner(100).partition(tiny_hw, 8, seed=0)
        assert (
            replication_factor(hep100)
            <= replication_factor(hep10) + 0.05
        )

    def test_balance_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="balance_cap"):
            HepPartitioner(10, balance_cap=0.99)
        HepPartitioner(10, balance_cap=1.0)  # perfect balance is allowed

    def test_two_cliques_found(self, two_cliques):
        """With k=2, NE should cut only at the bridge: RF close to 1."""
        part = HepPartitioner(100, balance_cap=1.2).partition(
            two_cliques, 2, seed=0
        )
        assert replication_factor(part) <= 1.25
