"""Tests for the Gran-LTF spectrum builder."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.core.granularity import GranularityBuilder
from repro.core.tree_order import LargestTreeFirstBuilder
from repro.util.rng import RngStream


class TestGranularity:
    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            GranularityBuilder(granularity=0)

    def test_batches_of_g(self, small_problem, rng):
        g = 3
        phases = list(
            GranularityBuilder(granularity=g).phases(small_problem, rng)
        )
        sizes = [len({r.stream for r in requests}) for requests in phases]
        assert all(size == g for size in sizes[:-1])
        assert 1 <= sizes[-1] <= g
        assert sum(sizes) == small_problem.n_groups

    def test_batches_sorted_by_descending_size(self, small_problem, rng):
        phases = list(
            GranularityBuilder(granularity=2).phases(small_problem, rng)
        )
        size = {group.stream: group.size for group in small_problem.groups}
        maxima = [max(size[r.stream] for r in requests) for requests in phases]
        assert maxima == sorted(maxima, reverse=True)

    def test_granularity_clamped_to_forest(self, small_problem, rng):
        big = GranularityBuilder(granularity=10_000)
        phases = list(big.phases(small_problem, rng))
        assert len(phases) == 1

    def test_g1_group_order_matches_ltf(self, small_problem, rng):
        g1 = [
            requests[0].stream
            for requests in GranularityBuilder(granularity=1).phases(
                small_problem, rng
            )
        ]
        ltf = [
            g.stream
            for g in LargestTreeFirstBuilder().order_groups(small_problem)
        ]
        assert g1 == ltf

    @pytest.mark.parametrize("g", [1, 2, 5, 100])
    def test_every_request_scheduled_once(self, small_problem, g):
        builder = GranularityBuilder(granularity=g)
        requests = [
            r
            for batch in builder.phases(small_problem, RngStream(3))
            for r in batch
        ]
        assert sorted(requests) == sorted(small_problem.all_requests())

    @pytest.mark.parametrize("g", [1, 3, 7])
    def test_build_verifies(self, small_problem, g, rng):
        GranularityBuilder(granularity=g).build(small_problem, rng).verify()
