"""Tests for the Topology graph and its shortest-path costs."""

from __future__ import annotations

import math

import pytest

from repro.errors import TopologyError
from repro.topology.backbone import load_backbone
from repro.topology.geo import GeoPoint
from repro.topology.graph import Link, Topology
from tests.reference_paths import dict_dijkstra, neighbors, pairwise_costs, path_cost


def line_topology() -> Topology:
    """a -- b -- c with explicit costs 1 and 2."""
    topo = Topology("line")
    topo.add_pop("a", GeoPoint(0.0, 0.0))
    topo.add_pop("b", GeoPoint(0.0, 1.0))
    topo.add_pop("c", GeoPoint(0.0, 2.0))
    topo.add_link("a", "b", 1.0)
    topo.add_link("b", "c", 2.0)
    return topo


class TestConstruction:
    def test_duplicate_pop_rejected(self):
        topo = Topology()
        topo.add_pop("a", GeoPoint(0, 0))
        with pytest.raises(TopologyError):
            topo.add_pop("a", GeoPoint(1, 1))

    def test_link_unknown_pop_rejected(self):
        topo = Topology()
        topo.add_pop("a", GeoPoint(0, 0))
        with pytest.raises(TopologyError):
            topo.add_link("a", "missing")

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_pop("a", GeoPoint(0, 0))
        with pytest.raises(TopologyError):
            topo.add_link("a", "a")

    def test_negative_cost_rejected(self):
        topo = line_topology()
        with pytest.raises(TopologyError):
            topo.add_link("a", "c", -1.0)

    def test_derived_cost_from_distance(self):
        topo = Topology()
        topo.add_pop("x", GeoPoint(0.0, 0.0))
        topo.add_pop("y", GeoPoint(0.0, 10.0))  # ~1113 km on the equator
        link = topo.add_link("x", "y")
        assert link.cost_ms > 5.0  # ~5.6ms propagation + hop delay

    def test_link_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("a", "a", 1.0)


class TestInspection:
    def test_len_and_pop_ids(self):
        topo = line_topology()
        assert len(topo) == 3
        assert topo.pop_ids == ["a", "b", "c"]

    def test_location_unknown(self):
        with pytest.raises(TopologyError):
            line_topology().location("z")

    def test_neighbors(self):
        topo = line_topology()
        assert neighbors(topo, "b") == {"a": 1.0, "c": 2.0}

    def test_links_iterated_once(self):
        topo = line_topology()
        assert topo.link_count() == 2

    def test_connectivity(self):
        topo = line_topology()
        assert topo.is_connected()
        topo.add_pop("island", GeoPoint(5, 5))
        assert not topo.is_connected()

    def test_empty_topology_connected(self):
        assert Topology().is_connected()


class TestShortestPaths:
    def test_direct_and_two_hop(self):
        topo = line_topology()
        assert path_cost(topo, "a", "b") == pytest.approx(1.0)
        assert path_cost(topo, "a", "c") == pytest.approx(3.0)

    def test_self_cost_zero(self):
        assert path_cost(line_topology(), "a", "a") == 0.0

    def test_symmetric(self):
        topo = line_topology()
        assert path_cost(topo, "a", "c") == path_cost(topo, "c", "a")

    def test_shortcut_preferred(self):
        topo = line_topology()
        topo.add_link("a", "c", 0.5)
        assert path_cost(topo, "a", "c") == pytest.approx(0.5)

    def test_no_path_raises(self):
        topo = line_topology()
        topo.add_pop("island", GeoPoint(5, 5))
        with pytest.raises(TopologyError):
            path_cost(topo, "a", "island")

    def test_cost_matrix_subset(self):
        topo = line_topology()
        matrix = pairwise_costs(topo, ["a", "c"])
        assert set(matrix) == {"a", "c"}
        assert matrix["a"]["c"] == pytest.approx(3.0)
        assert matrix["a"]["a"] == 0.0

    def test_cost_matrix_unknown_pop(self):
        with pytest.raises(TopologyError):
            pairwise_costs(line_topology(), ["a", "zz"])

    def test_cache_invalidated_by_new_link(self):
        topo = line_topology()
        assert path_cost(topo, "a", "c") == pytest.approx(3.0)
        topo.add_link("a", "c", 0.25)
        assert path_cost(topo, "a", "c") == pytest.approx(0.25)

    def test_matches_networkx(self):
        networkx = pytest.importorskip("networkx")
        topo = line_topology()
        topo.add_link("a", "c", 2.5)
        graph = networkx.Graph()
        for link in topo.links():
            graph.add_edge(link.a, link.b, weight=link.cost_ms)
        pops = topo.pop_ids
        for src, row in zip(pops, topo.dense_cost_matrix().rows()):
            expected = networkx.single_source_dijkstra_path_length(
                graph, src, weight="weight"
            )
            for dst, cost in expected.items():
                assert row[pops.index(dst)] == pytest.approx(cost)


ROW_TOPOLOGIES = ["tier1", "abilene"] + [
    f"synthetic-{n}" for n in (*range(2, 41), 96, 130)
]


class TestShortestPathRows:
    """The integer-indexed solve, the old dict Dijkstra and scipy agree."""

    @pytest.mark.parametrize("name", ROW_TOPOLOGIES)
    def test_rows_match_the_dict_dijkstra(self, name):
        topo = load_backbone(name)
        pops = topo.pop_ids
        rows = topo.dense_cost_matrix().rows()
        for pop, full, row in zip(pops, topo._shortest_rows(pops), rows):
            expected = [dict_dijkstra(topo, pop)[other] for other in pops]
            assert list(full) == expected
            assert row == expected

    @pytest.mark.parametrize("name", ROW_TOPOLOGIES)
    def test_heap_and_scipy_rows_agree(self, name):
        pytest.importorskip("scipy")
        heap, bulk = load_backbone(name), load_backbone(name)
        # Instance attributes shadow the class gate: one copy never takes
        # the scipy path, the other always does.
        heap._BULK_SSSP_MIN_POPS = 10**9
        bulk._BULK_SSSP_MIN_POPS = 0
        assert heap.dense_cost_matrix().rows() == bulk.dense_cost_matrix().rows()

    def test_unreachable_pop_is_absent_and_has_no_matrix_entry(self):
        topo = line_topology()
        topo.add_pop("island", GeoPoint(5.0, 5.0))
        (row,) = topo._shortest_rows(["a"])
        assert row[topo.pop_ids.index("island")] == math.inf
        assert "island" not in dict_dijkstra(topo, "a")
        with pytest.raises(TopologyError, match="no path from 'a' to 'island'"):
            topo.dense_cost_matrix()
