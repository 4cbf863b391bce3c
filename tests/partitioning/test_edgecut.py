"""Behavioural tests for the six edge-cut (vertex) partitioners."""

import numpy as np
import pytest

from repro.partitioning import (
    ByteGnnPartitioner,
    KahipPartitioner,
    LdgPartitioner,
    MetisPartitioner,
    RandomVertexPartitioner,
    SpinnerPartitioner,
    VERTEX_PARTITIONER_NAMES,
    edge_cut_ratio,
    make_vertex_partitioner,
    training_vertex_balance,
    vertex_balance,
)

ALL = [
    make_vertex_partitioner(name) for name in VERTEX_PARTITIONER_NAMES
]


@pytest.mark.parametrize("partitioner", ALL, ids=lambda p: p.name)
class TestCommonContract:
    def test_every_vertex_assigned(self, partitioner, tiny_or):
        part = partitioner.partition(tiny_or, 4, seed=0)
        assert part.assignment.shape == (tiny_or.num_vertices,)
        assert (part.assignment >= 0).all()
        assert (part.assignment < 4).all()

    def test_deterministic_given_seed(self, partitioner, tiny_or):
        a = partitioner.partition(tiny_or, 4, seed=3).assignment
        b = partitioner.partition(tiny_or, 4, seed=3).assignment
        assert np.array_equal(a, b)

    def test_single_partition(self, partitioner, tiny_or):
        part = partitioner.partition(tiny_or, 1, seed=0)
        assert (part.assignment == 0).all()
        assert edge_cut_ratio(part) == 0.0

    def test_reasonable_vertex_balance(self, partitioner, tiny_or):
        part = partitioner.partition(tiny_or, 4, seed=0)
        assert vertex_balance(part) < 1.6

    def test_rejects_zero_partitions(self, partitioner, tiny_or):
        with pytest.raises(ValueError):
            partitioner.partition(tiny_or, 0)


class TestQualityOrdering:
    def test_all_beat_random(self, tiny_or):
        rnd = edge_cut_ratio(
            RandomVertexPartitioner().partition(tiny_or, 8, seed=0)
        )
        for partitioner in (
            LdgPartitioner(),
            SpinnerPartitioner(),
            MetisPartitioner(),
            KahipPartitioner(),
        ):
            cut = edge_cut_ratio(partitioner.partition(tiny_or, 8, seed=0))
            assert cut < rnd, partitioner.name

    def test_multilevel_beats_streaming(self, tiny_di):
        """On the road network, METIS-family cuts are far lower than
        streaming cuts (paper Figure 12's DI column)."""
        metis = edge_cut_ratio(
            MetisPartitioner().partition(tiny_di, 8, seed=0)
        )
        ldg = edge_cut_ratio(LdgPartitioner().partition(tiny_di, 8, seed=0))
        assert metis < ldg

    def test_road_network_cuts_lowest(self, tiny_di, tiny_or):
        """DI's near-planar structure admits lower cuts than social graphs
        (paper: <0.001 vs 0.12+; the gap widens with graph size, so the
        tiny fixtures only assert the ordering)."""
        road = edge_cut_ratio(
            MetisPartitioner().partition(tiny_di, 8, seed=0)
        )
        social = edge_cut_ratio(
            MetisPartitioner().partition(tiny_or, 8, seed=0)
        )
        assert road < social


class TestMetis:
    def test_two_cliques_exact(self, two_cliques):
        part = MetisPartitioner().partition(two_cliques, 2, seed=0)
        assert part.num_cut_edges() == 1  # only the bridge

    def test_respects_epsilon(self, tiny_or):
        part = MetisPartitioner(epsilon=0.05).partition(tiny_or, 4, seed=0)
        assert vertex_balance(part) <= 1.2


class TestEffortValidation:
    """Constructor checks are real exceptions (they survive ``python -O``)."""

    @pytest.mark.parametrize("factory", [MetisPartitioner, KahipPartitioner])
    @pytest.mark.parametrize(
        "bad", [{"epsilon": -0.01}, {"refine_passes": -1}]
    )
    def test_negative_effort_rejected(self, factory, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            factory(**bad)

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_kahip_needs_a_repetition(self, repetitions):
        with pytest.raises(ValueError, match="repetitions"):
            KahipPartitioner(repetitions=repetitions)

    def test_zero_effort_is_allowed(self, two_cliques):
        part = KahipPartitioner(
            epsilon=0.0, refine_passes=0, repetitions=1
        ).partition(two_cliques, 2, seed=0)
        assert part.vertex_counts().tolist() == [4, 4]


class TestKahip:
    def test_repetitions_do_not_hurt(self, tiny_or):
        one = KahipPartitioner(repetitions=1).partition(tiny_or, 4, seed=0)
        four = KahipPartitioner(repetitions=4).partition(tiny_or, 4, seed=0)
        assert edge_cut_ratio(four) <= edge_cut_ratio(one) + 1e-9

    def test_takes_longer_than_metis(self, tiny_or):
        metis = MetisPartitioner()
        kahip = KahipPartitioner()
        metis.partition(tiny_or, 4, seed=0)
        kahip.partition(tiny_or, 4, seed=0)
        assert (
            kahip.last_partitioning_seconds
            > metis.last_partitioning_seconds
        )


class TestLdg:
    def test_respects_capacity(self, tiny_or):
        part = LdgPartitioner(slack=1.1).partition(tiny_or, 4, seed=0)
        cap = 1.1 * tiny_or.num_vertices / 4
        assert part.vertex_counts().max() <= cap + 1

    def test_slack_below_one_rejected(self, tiny_or):
        # Below 1 the k caps hold fewer than n vertices.
        with pytest.raises(ValueError, match="slack"):
            LdgPartitioner(slack=0.99)
        part = LdgPartitioner(slack=1.0).partition(tiny_or, 4, seed=0)
        assert (part.assignment >= 0).all()  # perfect balance is allowed


class TestSpinner:
    def test_capacity_cap_held(self, tiny_or):
        part = SpinnerPartitioner().partition(tiny_or, 8, seed=0)
        cap = 1.05 * tiny_or.num_vertices / 8
        assert part.vertex_counts().max() <= cap + 1

    def test_improves_over_random_init(self, tiny_or):
        lpa = SpinnerPartitioner(iterations=40).partition(
            tiny_or, 4, seed=0
        )
        rnd = RandomVertexPartitioner().partition(tiny_or, 4, seed=0)
        assert edge_cut_ratio(lpa) < edge_cut_ratio(rnd)


class TestByteGnn:
    def test_train_vertex_balance_is_design_goal(self, tiny_or, tiny_or_split):
        part = ByteGnnPartitioner(
            train_vertices=tiny_or_split.train
        ).partition(tiny_or, 4, seed=0)
        assert training_vertex_balance(part, tiny_or_split.train) <= 1.3

    def test_works_without_explicit_split(self, tiny_or):
        part = ByteGnnPartitioner().partition(tiny_or, 4, seed=0)
        assert (part.assignment >= 0).all()
