"""Tests for the embedded backbone datasets."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.backbone import BACKBONES, load_backbone
from tests.reference_paths import path_cost


class TestDatasets:
    @pytest.mark.parametrize("name", sorted(BACKBONES))
    def test_loads_and_connected(self, name):
        topo = load_backbone(name)
        assert len(topo) >= 10
        assert topo.is_connected()

    @pytest.mark.parametrize("name", sorted(BACKBONES))
    def test_all_link_costs_positive(self, name):
        topo = load_backbone(name)
        assert all(link.cost_ms > 0 for link in topo.links())

    def test_abilene_has_eleven_pops(self):
        assert len(load_backbone("abilene")) == 11

    def test_tier1_spans_continents(self):
        topo = load_backbone("tier1")
        assert {"tokyo", "london", "sao-paulo"} <= set(topo.pop_ids)

    def test_unknown_name(self):
        with pytest.raises(TopologyError, match="unknown backbone"):
            load_backbone("arpanet")

    def test_transcontinental_costs_realistic(self):
        topo = load_backbone("tier1")
        # One-way NY-London: ~28ms propagation at 2/3 c plus hop delay.
        cost = path_cost(topo, "new-york", "london")
        assert 25.0 < cost < 40.0

    def test_transpacific_more_expensive_than_domestic(self):
        topo = load_backbone("tier1")
        assert path_cost(topo, "seattle", "tokyo") > path_cost(
            topo, "seattle", "denver"
        )

    def test_instances_are_independent(self):
        a = load_backbone("abilene")
        b = load_backbone("abilene")
        a.add_pop("extra", a.location("seattle"))
        assert "extra" not in b.pop_ids
