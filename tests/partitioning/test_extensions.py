"""Tests for the extension partitioners (Fennel, reLDG, NE)."""

import numpy as np
import pytest

from repro.partitioning import (
    EXTENSION_PARTITIONER_NAMES,
    FennelPartitioner,
    HepPartitioner,
    LdgPartitioner,
    NePartitioner,
    RandomVertexPartitioner,
    RestreamingLdgPartitioner,
    edge_cut_ratio,
    make_extension_partitioner,
    replication_factor,
    vertex_balance,
)


class TestRegistry:
    def test_names(self):
        assert set(EXTENSION_PARTITIONER_NAMES) == {"fennel", "reldg", "ne"}

    def test_factory(self):
        assert make_extension_partitioner("Fennel").name == "Fennel"
        assert make_extension_partitioner("NE").cut_type == "vertex-cut"
        with pytest.raises(KeyError):
            make_extension_partitioner("nope")


class TestFennel:
    def test_contract(self, tiny_or):
        part = FennelPartitioner().partition(tiny_or, 4, seed=0)
        assert part.vertex_counts().sum() == tiny_or.num_vertices
        assert vertex_balance(part) < 1.2

    def test_beats_random(self, tiny_or):
        fennel = FennelPartitioner().partition(tiny_or, 8, seed=0)
        rnd = RandomVertexPartitioner().partition(tiny_or, 8, seed=0)
        assert edge_cut_ratio(fennel) < edge_cut_ratio(rnd)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            FennelPartitioner(gamma=1.0)

    def test_deterministic(self, tiny_or):
        a = FennelPartitioner().partition(tiny_or, 4, seed=1).assignment
        b = FennelPartitioner().partition(tiny_or, 4, seed=1).assignment
        assert np.array_equal(a, b)


class TestRestreamingLdg:
    def test_restreaming_improves_on_ldg(self, tiny_or):
        """Extra passes must not be worse than single-pass LDG."""
        reldg = RestreamingLdgPartitioner(passes=5).partition(
            tiny_or, 8, seed=0
        )
        ldg = LdgPartitioner().partition(tiny_or, 8, seed=0)
        assert edge_cut_ratio(reldg) <= edge_cut_ratio(ldg) + 0.02

    def test_one_pass_equivalent_contract(self, tiny_or):
        part = RestreamingLdgPartitioner(passes=1).partition(
            tiny_or, 4, seed=0
        )
        assert (part.assignment >= 0).all()

    def test_rejects_zero_passes(self):
        with pytest.raises(ValueError):
            RestreamingLdgPartitioner(passes=0)

    def test_capacity_held(self, tiny_or):
        part = RestreamingLdgPartitioner(passes=3, slack=1.1).partition(
            tiny_or, 4, seed=0
        )
        assert part.vertex_counts().max() <= 1.1 * tiny_or.num_vertices / 4 + 1


@pytest.mark.parametrize(
    "factory", [FennelPartitioner, RestreamingLdgPartitioner],
    ids=lambda f: f.__name__,
)
def test_slack_below_one_rejected(factory, tiny_or):
    with pytest.raises(ValueError, match="slack"):
        factory(slack=0.5)
    part = factory(slack=1.0).partition(tiny_or, 4, seed=0)
    assert (part.assignment >= 0).all()  # perfect balance is allowed


class TestNe:
    def test_contract(self, tiny_or):
        part = NePartitioner().partition(tiny_or, 4, seed=0)
        assert (part.assignment >= 0).all()
        assert part.edge_counts().sum() == part.num_edges

    def test_quality_comparable_to_hep100(self, tiny_or):
        """NE is HEP100's in-memory core; quality should be in the same
        league (HEP100 == NE plus hub thresholding)."""
        ne = NePartitioner().partition(tiny_or, 8, seed=0)
        hep = HepPartitioner(100).partition(tiny_or, 8, seed=0)
        assert replication_factor(ne) < 1.25 * replication_factor(hep)

    def test_refinement_helps(self, tiny_or):
        raw = NePartitioner(refine=False).partition(tiny_or, 8, seed=0)
        refined = NePartitioner(refine=True).partition(tiny_or, 8, seed=0)
        assert replication_factor(refined) <= replication_factor(raw)

    def test_balance_cap_below_one_rejected(self):
        with pytest.raises(ValueError, match="balance_cap"):
            NePartitioner(balance_cap=0.5)

    def test_two_cliques(self, two_cliques):
        part = NePartitioner(balance_cap=1.2).partition(
            two_cliques, 2, seed=0
        )
        assert replication_factor(part) <= 1.25
