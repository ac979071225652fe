"""Tests for site placement strategies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology.backbone import load_backbone
from repro.topology.geo import haversine_km
from repro.topology.placement import place_sites
from repro.util.rng import RngStream
from tests.reference_paths import reference_farthest_point_sample


class TestRandomPlacement:
    def test_distinct_sites(self, tier1_topology, rng):
        sites = place_sites(tier1_topology, 8, rng=rng)
        assert len(sites) == 8
        assert len(set(sites)) == 8

    def test_requires_rng(self, tier1_topology):
        with pytest.raises(ConfigurationError):
            place_sites(tier1_topology, 3, rng=None, strategy="random")

    def test_too_many_sites(self, tier1_topology, rng):
        with pytest.raises(TopologyError):
            place_sites(tier1_topology, len(tier1_topology) + 1, rng=rng)

    def test_zero_sites_rejected(self, tier1_topology, rng):
        with pytest.raises(ConfigurationError):
            place_sites(tier1_topology, 0, rng=rng)

    def test_deterministic(self, tier1_topology):
        a = place_sites(tier1_topology, 5, rng=RngStream(3))
        b = place_sites(tier1_topology, 5, rng=RngStream(3))
        assert a == b


class TestSpreadPlacement:
    def test_distinct_sites(self, tier1_topology, rng):
        sites = place_sites(tier1_topology, 6, rng=rng, strategy="spread")
        assert len(set(sites)) == 6

    def test_spread_beats_random_min_distance(self, tier1_topology):
        def min_pairwise(sites):
            return min(
                haversine_km(
                    tier1_topology.location(a), tier1_topology.location(b)
                )
                for i, a in enumerate(sites)
                for b in sites[i + 1 :]
            )

        rng = RngStream(5)
        spread = place_sites(tier1_topology, 6, rng=RngStream(5), strategy="spread")
        randoms = [
            place_sites(tier1_topology, 6, rng=rng.spawn(str(k)))
            for k in range(10)
        ]
        mean_random = sum(min_pairwise(s) for s in randoms) / len(randoms)
        assert min_pairwise(spread) >= mean_random

    def test_works_without_rng(self, tier1_topology):
        sites = place_sites(tier1_topology, 4, rng=None, strategy="spread")
        assert len(set(sites)) == 4


class TestErrors:
    def test_unknown_strategy(self, tier1_topology, rng):
        with pytest.raises(ConfigurationError, match="strategy"):
            place_sites(tier1_topology, 3, rng=rng, strategy="magnetic")


class TestEdgeCases:
    def test_full_coverage_uses_every_pop(self, tier1_topology):
        n = len(tier1_topology)
        placed = place_sites(tier1_topology, n, rng=RngStream(9))
        assert sorted(placed) == sorted(tier1_topology.pop_ids)

    def test_single_site(self, tier1_topology, rng):
        placed = place_sites(tier1_topology, 1, rng=rng)
        assert len(placed) == 1
        assert placed[0] in tier1_topology.pop_ids

    def test_spread_deterministic_given_seed(self, tier1_topology):
        a = place_sites(tier1_topology, 5, rng=RngStream(4), strategy="spread")
        b = place_sites(tier1_topology, 5, rng=RngStream(4), strategy="spread")
        assert a == b

    def test_spread_full_coverage(self, tier1_topology):
        n = len(tier1_topology)
        placed = place_sites(
            tier1_topology, n, rng=RngStream(2), strategy="spread"
        )
        assert sorted(placed) == sorted(tier1_topology.pop_ids)

    def test_spread_all_pops_valid(self, abilene_topology):
        placed = place_sites(abilene_topology, 4, rng=None, strategy="spread")
        assert all(pop in abilene_topology.pop_ids for pop in placed)

    def test_random_and_spread_work_on_abilene(self, abilene_topology):
        random_placed = place_sites(abilene_topology, 3, rng=RngStream(8))
        spread_placed = place_sites(
            abilene_topology, 3, rng=RngStream(8), strategy="spread"
        )
        assert len(set(random_placed)) == 3
        assert len(set(spread_placed)) == 3


class TestSpreadAgainstTheReferenceLoop:
    @pytest.mark.parametrize(
        "name", ["tier1", "synthetic-2", "synthetic-32", "synthetic-64"]
    )
    @pytest.mark.parametrize("seed", [None, 3, 8])
    def test_identical_picks(self, name, seed):
        topology = load_backbone(name)
        for n_sites in sorted({1, 2, len(topology) // 2, len(topology)}):
            fast = RngStream(seed) if seed is not None else None
            slow = RngStream(seed) if seed is not None else None
            assert place_sites(
                topology, n_sites, rng=fast, strategy="spread"
            ) == reference_farthest_point_sample(topology, n_sites, slow)
