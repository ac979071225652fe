"""Tests for the tree-ordered builders (LTF, STF, MCTF)."""

from __future__ import annotations

import pytest

from repro.core.model import MulticastGroup
from repro.core.problem import ForestProblem
from repro.core.tree_order import (
    LargestTreeFirstBuilder,
    MinCapacityTreeFirstBuilder,
    SmallestTreeFirstBuilder,
)
from repro.session.streams import StreamId
from tests.conftest import complete_cost


def sized_problem() -> ForestProblem:
    """Groups of sizes 3, 1, 2 from different sources."""
    return ForestProblem.from_tables(
        cost=complete_cost(4),
        inbound={i: 10 for i in range(4)},
        outbound={i: 10 for i in range(4)},
        group_members={
            StreamId(0, 0): {1, 2, 3},
            StreamId(1, 0): {0},
            StreamId(2, 0): {0, 1},
        },
        latency_bound_ms=10.0,
    )


class TestOrdering:
    def test_ltf_descending_sizes(self):
        sizes = [
            g.size
            for g in LargestTreeFirstBuilder().order_groups(sized_problem())
        ]
        assert sizes == [3, 2, 1]

    def test_stf_ascending_sizes(self):
        sizes = [
            g.size
            for g in SmallestTreeFirstBuilder().order_groups(sized_problem())
        ]
        assert sizes == [1, 2, 3]

    def test_ties_break_by_stream_id(self):
        problem = ForestProblem.from_tables(
            cost=complete_cost(3),
            inbound={i: 5 for i in range(3)},
            outbound={i: 5 for i in range(3)},
            group_members={
                StreamId(1, 1): {0},
                StreamId(0, 0): {1},
                StreamId(0, 1): {2},
            },
            latency_bound_ms=5.0,
        )
        streams = [
            g.stream for g in LargestTreeFirstBuilder().order_groups(problem)
        ]
        assert streams == [StreamId(0, 0), StreamId(0, 1), StreamId(1, 1)]


class TestMctf:
    def test_capacity_aggregates_members(self):
        problem = sized_problem()
        builder = MinCapacityTreeFirstBuilder()
        group = MulticastGroup(StreamId(0, 0), frozenset({1, 2, 3}))
        # Nodes 1, 2 each send one subscribed stream (m=1), node 3 none.
        expected = (10 - 1) + (10 - 1) + (10 - 0)
        assert builder.group_capacity(problem, group) == expected

    def test_include_source_adds_source_capacity(self):
        problem = sized_problem()
        group = MulticastGroup(StreamId(1, 0), frozenset({0}))
        without = MinCapacityTreeFirstBuilder().group_capacity(problem, group)
        with_src = MinCapacityTreeFirstBuilder(include_source=True).group_capacity(
            problem, group
        )
        assert with_src == without + (10 - 1)  # node 1 sends one stream

    def test_orders_ascending_capacity(self):
        problem = sized_problem()
        builder = MinCapacityTreeFirstBuilder()
        capacities = [
            builder.group_capacity(problem, g)
            for g in builder.order_groups(problem)
        ]
        assert capacities == sorted(capacities)


class TestBuildBehaviour:
    @pytest.mark.parametrize(
        "builder_cls",
        [LargestTreeFirstBuilder, SmallestTreeFirstBuilder,
         MinCapacityTreeFirstBuilder],
    )
    def test_processes_every_request_once(self, builder_cls, rng):
        problem = sized_problem()
        result = builder_cls().build(problem, rng)
        result.verify()
        assert result.total_requests == problem.total_requests()

    @pytest.mark.parametrize(
        "builder_cls",
        [LargestTreeFirstBuilder, SmallestTreeFirstBuilder,
         MinCapacityTreeFirstBuilder],
    )
    def test_ample_capacity_satisfies_everything(self, builder_cls, rng):
        result = builder_cls().build(sized_problem(), rng)
        assert not result.rejected

    def test_phases_open_one_group_each(self, rng):
        problem = sized_problem()
        phases = list(LargestTreeFirstBuilder().phases(problem, rng))
        assert len(phases) == problem.n_groups
        assert all(len({r.stream for r in requests}) == 1 for requests in phases)
