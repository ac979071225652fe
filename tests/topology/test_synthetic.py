"""Tests for the synthetic Waxman-geographic backbone generator."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.topology.backbone import SYNTHETIC_BACKBONE_SEED
from repro.topology.synthetic import SyntheticBackboneConfig, synthetic_backbone
from repro.util.rng import RngStream
from tests.reference_paths import neighbors, reference_synthetic_backbone


class TestConfig:
    def test_defaults_valid(self):
        SyntheticBackboneConfig().validate()

    def test_too_few_pops(self):
        with pytest.raises(ConfigurationError):
            SyntheticBackboneConfig(n_pops=1).validate()

    def test_bad_beta(self):
        with pytest.raises(ConfigurationError):
            SyntheticBackboneConfig(waxman_beta=1.5).validate()

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            SyntheticBackboneConfig(waxman_alpha=0.0).validate()

    def test_negative_extra_degree(self):
        with pytest.raises(ConfigurationError):
            SyntheticBackboneConfig(extra_degree=-1.0).validate()

    def test_empty_regions(self):
        with pytest.raises(ConfigurationError):
            SyntheticBackboneConfig(regions=[]).validate()


class TestGenerator:
    def test_pop_count(self):
        topo = synthetic_backbone(
            SyntheticBackboneConfig(n_pops=15), RngStream(3)
        )
        assert len(topo) == 15

    def test_always_connected(self):
        for seed in range(5):
            topo = synthetic_backbone(
                SyntheticBackboneConfig(n_pops=12, waxman_beta=0.1),
                RngStream(seed),
            )
            assert topo.is_connected()

    def test_deterministic_given_seed(self):
        config = SyntheticBackboneConfig(n_pops=10)
        a = synthetic_backbone(config, RngStream(5))
        b = synthetic_backbone(config, RngStream(5))
        assert sorted((l.a, l.b) for l in a.links()) == sorted(
            (l.a, l.b) for l in b.links()
        )

    def test_seed_changes_graph(self):
        config = SyntheticBackboneConfig(n_pops=10)
        a = synthetic_backbone(config, RngStream(5))
        b = synthetic_backbone(config, RngStream(6))
        assert sorted((l.a, l.b) for l in a.links()) != sorted(
            (l.a, l.b) for l in b.links()
        )

    def test_extra_degree_adds_links(self):
        sparse = synthetic_backbone(
            SyntheticBackboneConfig(n_pops=20, extra_degree=0.0, waxman_beta=1.0),
            RngStream(1),
        )
        dense = synthetic_backbone(
            SyntheticBackboneConfig(n_pops=20, extra_degree=4.0, waxman_beta=1.0),
            RngStream(1),
        )
        assert dense.link_count() > sparse.link_count()

    def test_minimum_two_pops(self):
        topo = synthetic_backbone(
            SyntheticBackboneConfig(n_pops=2), RngStream(1)
        )
        assert topo.is_connected()
        assert topo.link_count() >= 1

    def test_pops_carry_region_names(self):
        topo = synthetic_backbone(
            SyntheticBackboneConfig(n_pops=8), RngStream(2)
        )
        assert all("pop-" in pop for pop in topo.pop_ids)


def generated(generator, n_pops: int, seed: int) -> tuple:
    """Everything one generation decides, and the RNG's next draw after it."""
    rng = RngStream(seed, label=f"synthetic-{n_pops}")
    topology = generator(SyntheticBackboneConfig(n_pops=n_pops), rng)
    pops = topology.pop_ids
    return (
        topology.name,
        pops,
        [topology.location(pop) for pop in pops],
        [list(neighbors(topology, pop).items()) for pop in pops],
        rng.random(),
    )


class TestAgainstTheReferenceGenerator:
    """PoP ids, coordinates, links with their costs (in adjacency order)
    and the RNG's state match the three-distances-a-pair generator."""

    @pytest.mark.parametrize(
        "n_pops",
        [*range(2, 41), 56, 64, 96]
        + [pytest.param(n, marks=pytest.mark.slow) for n in (128, 256, 1024)],
    )
    @pytest.mark.parametrize("seed", [SYNTHETIC_BACKBONE_SEED, 5])
    def test_identical_backbone_and_draws(self, n_pops, seed):
        assert generated(synthetic_backbone, n_pops, seed) == generated(
            reference_synthetic_backbone, n_pops, seed
        )
