"""Tests for the all-to-all unicast baseline."""

from __future__ import annotations

import pytest

from repro.baselines.all_to_all import DirectUnicastBuilder, all_to_all_load
from repro.core.metrics import rejection_ratio
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from tests.conftest import complete_cost


def star_problem(outbound_source: int) -> ForestProblem:
    """One popular stream, four subscribers, limited source out-degree."""
    return ForestProblem.from_tables(
        cost=complete_cost(5),
        inbound={i: 10 for i in range(5)},
        outbound={0: outbound_source, 1: 10, 2: 10, 3: 10, 4: 10},
        group_members={StreamId(0, 0): {1, 2, 3, 4}},
        latency_bound_ms=10.0,
    )


class TestDirectUnicast:
    def test_all_edges_from_source(self, rng):
        result = DirectUnicastBuilder().build(star_problem(10), rng)
        for _, parent, _ in result.forest.edges():
            assert parent == 0

    def test_source_saturation_rejects_excess(self, rng):
        result = DirectUnicastBuilder().build(star_problem(2), rng)
        assert len(result.satisfied) == 2
        assert len(result.rejected) == 2

    def test_multicast_beats_unicast_on_popular_stream(self, rng):
        problem = star_problem(2)
        unicast = DirectUnicastBuilder().build(problem, rng.spawn("u"))
        overlay = RandomJoinBuilder().build(problem, rng.spawn("o"))
        # The overlay relays through satisfied subscribers and serves all.
        assert rejection_ratio(overlay) < rejection_ratio(unicast)
        assert not overlay.rejected

    def test_latency_bound_respected(self, rng):
        problem = star_problem(10)
        problem.set_cost(0, 4, 99.0)
        result = DirectUnicastBuilder().build(problem, rng)
        rejected = {r.subscriber for r, _ in result.rejected}
        assert 4 in rejected

    def test_verify(self, small_problem, rng):
        DirectUnicastBuilder().build(small_problem, rng).verify()


class TestAllToAllLoad:
    def test_paper_back_of_envelope(self):
        # Sec. 1: ten streams per site, two sites -> each sends 10 streams.
        load = all_to_all_load(n_sites=2, streams_per_site=10)
        assert load["out_streams"] == 10

    def test_scales_with_sites(self):
        load3 = all_to_all_load(n_sites=3, streams_per_site=20)
        load10 = all_to_all_load(n_sites=10, streams_per_site=20)
        assert load10["out_streams"] > load3["out_streams"]
        assert load3["out_streams"] == 40
        assert load10["out_mbps"] == pytest.approx(180 * 7.5)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            all_to_all_load(1, 10)
        with pytest.raises(ValueError):
            all_to_all_load(3, 0)
