"""Tests for random site placement."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.topology.backbone import load_backbone
from repro.topology.placement import place_sites
from repro.util.rng import RngStream


class TestRandomPlacement:
    def test_distinct_sites(self, tier1_topology, rng):
        sites = place_sites(tier1_topology, 8, rng)
        assert len(sites) == 8
        assert len(set(sites)) == 8

    def test_too_many_sites(self, tier1_topology, rng):
        with pytest.raises(TopologyError):
            place_sites(tier1_topology, len(tier1_topology) + 1, rng)

    def test_zero_sites_rejected(self, tier1_topology, rng):
        with pytest.raises(ConfigurationError):
            place_sites(tier1_topology, 0, rng)

    def test_deterministic(self, tier1_topology):
        a = place_sites(tier1_topology, 5, RngStream(3))
        b = place_sites(tier1_topology, 5, RngStream(3))
        assert a == b

    @pytest.mark.parametrize("name", ["tier1", "abilene", "synthetic-32"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_is_one_uniform_sample_of_the_pops(self, name, seed):
        """The paper's method: one draw of ``n`` distinct PoPs, nothing else."""
        topology = load_backbone(name)
        n = len(topology) // 2
        assert place_sites(topology, n, RngStream(seed)) == RngStream(seed).sample(
            topology.pop_ids, n
        )

    def test_works_on_abilene(self, abilene_topology):
        placed = place_sites(abilene_topology, 3, RngStream(8))
        assert len(set(placed)) == 3


class TestEdgeCases:
    def test_full_coverage_uses_every_pop(self, tier1_topology):
        n = len(tier1_topology)
        placed = place_sites(tier1_topology, n, RngStream(9))
        assert sorted(placed) == sorted(tier1_topology.pop_ids)

    def test_single_site(self, tier1_topology, rng):
        placed = place_sites(tier1_topology, 1, rng)
        assert len(placed) == 1
        assert placed[0] in tier1_topology.pop_ids
