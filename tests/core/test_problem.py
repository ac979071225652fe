"""Tests for the Forest Construction Problem instance."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SubscriptionError
from repro.core.model import MulticastGroup
from repro.core.problem import ForestProblem
from repro.session.streams import StreamId
from repro.workload.coverage import CoverageWorkloadModel
from repro.workload.spec import SubscriptionWorkload
from tests.conftest import complete_cost


def tiny_problem(latency: float = 10.0) -> ForestProblem:
    """Three nodes; node 0 publishes two streams; 1 and 2 subscribe."""
    return ForestProblem.from_tables(
        cost=complete_cost(3),
        inbound={0: 4, 1: 4, 2: 4},
        outbound={0: 4, 1: 4, 2: 4},
        group_members={
            StreamId(0, 0): {1, 2},
            StreamId(0, 1): {1},
        },
        latency_bound_ms=latency,
    )


class TestConstruction:
    def test_tiny_problem(self):
        problem = tiny_problem()
        assert problem.n_nodes == 3
        assert problem.n_groups == 2
        assert problem.total_requests() == 3

    def test_missing_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            ForestProblem(
                n_nodes=2,
                cost=complete_cost(2),
                inbound={0: 1},
                outbound={0: 1, 1: 1},
                groups=[],
                latency_bound_ms=1.0,
            )

    def test_missing_cost_entry_rejected(self):
        cost = complete_cost(2)
        del cost[0][1]
        with pytest.raises(ConfigurationError):
            ForestProblem(
                n_nodes=2,
                cost=cost,
                inbound={0: 1, 1: 1},
                outbound={0: 1, 1: 1},
                groups=[],
                latency_bound_ms=1.0,
            )

    def test_negative_cost_rejected(self):
        cost = complete_cost(2)
        cost[0][1] = -1.0
        with pytest.raises(ConfigurationError):
            ForestProblem(
                n_nodes=2,
                cost=cost,
                inbound={0: 1, 1: 1},
                outbound={0: 1, 1: 1},
                groups=[],
                latency_bound_ms=1.0,
            )

    @pytest.mark.parametrize("value", [float("nan"), -1.0])
    def test_bad_cost_names_the_edge(self, value):
        cost = complete_cost(3)
        cost[2][1] = value
        with pytest.raises(ConfigurationError, match="2->1"):
            ForestProblem.from_tables(
                cost=cost,
                inbound={0: 1, 1: 1, 2: 1},
                outbound={0: 1, 1: 1, 2: 1},
                group_members={},
                latency_bound_ms=1.0,
            )

    def test_infinite_cost_accepted_as_unreachable(self):
        cost = complete_cost(2)
        cost[0][1] = float("inf")
        problem = ForestProblem.from_tables(
            cost=cost,
            inbound={0: 1, 1: 1},
            outbound={0: 1, 1: 1},
            group_members={},
            latency_bound_ms=1.0,
        )
        assert problem.edge_cost(0, 1) == float("inf")

    @pytest.mark.parametrize("value", [-1, 1.5])
    def test_bad_degree_bound_names_the_node(self, value):
        with pytest.raises(ConfigurationError, match="node 1"):
            ForestProblem.from_tables(
                cost=complete_cost(2),
                inbound={0: 1, 1: 1},
                outbound={0: 1, 1: value},
                group_members={},
                latency_bound_ms=1.0,
            )

    def test_tables_have_one_representation(self):
        problem = tiny_problem()
        for attribute in ("cost", "inbound", "outbound", "backend"):
            assert not hasattr(problem, attribute)

    @pytest.mark.parametrize("bound", (0.0, -1.0, float("nan")))
    def test_non_positive_bound_rejected(self, bound):
        """NaN included: ``nan <= 0`` is False, and a NaN bound would
        silently admit every request whatever its latency."""
        with pytest.raises(ConfigurationError, match="latency_bound_ms"):
            ForestProblem.from_tables(
                cost=complete_cost(2),
                inbound={0: 1, 1: 1},
                outbound={0: 1, 1: 1},
                group_members={},
                latency_bound_ms=bound,
            )

    def test_infinite_bound_is_legal(self):
        assert tiny_problem(latency=float("inf")).latency_bound_ms == float("inf")

    def test_duplicate_group_rejected(self):
        groups = [
            MulticastGroup(StreamId(0, 0), frozenset({1})),
            MulticastGroup(StreamId(0, 0), frozenset({1})),
        ]
        with pytest.raises(SubscriptionError):
            ForestProblem(
                n_nodes=2,
                cost=complete_cost(2),
                inbound={0: 1, 1: 1},
                outbound={0: 1, 1: 1},
                groups=groups,
                latency_bound_ms=1.0,
            )

    def test_out_of_range_member_rejected(self):
        with pytest.raises(SubscriptionError):
            ForestProblem.from_tables(
                cost=complete_cost(2),
                inbound={0: 1, 1: 1},
                outbound={0: 1, 1: 1},
                group_members={StreamId(0, 0): {5}},
                latency_bound_ms=1.0,
            )


class TestDerivedData:
    def test_u_matrix(self):
        problem = tiny_problem()
        assert problem.u(1, 0) == 2
        assert problem.u(2, 0) == 1
        assert problem.u(2, 1) == 0

    def test_streams_to_send(self):
        problem = tiny_problem()
        assert problem.streams_to_send(0) == 2
        assert problem.streams_to_send(1) == 0

    def test_all_requests_deterministic(self):
        problem = tiny_problem()
        assert problem.all_requests() == problem.all_requests()
        assert len(problem.all_requests()) == 3

    def test_edge_cost(self):
        problem = tiny_problem()
        assert problem.edge_cost(0, 1) == 1.0
        assert problem.edge_cost(1, 1) == 0.0


class TestFromWorkload:
    def test_round_trip(self, small_session, rng):
        workload = CoverageWorkloadModel(interest=0.5).generate(
            small_session, rng
        )
        problem = ForestProblem.from_workload(small_session, workload, 100.0)
        assert problem.n_nodes == small_session.n_sites
        assert problem.total_requests() == workload.total_requests()

    def test_site_count_mismatch_rejected(self, small_session):
        workload = SubscriptionWorkload(n_sites=9, subscriptions={})
        with pytest.raises(SubscriptionError):
            ForestProblem.from_workload(small_session, workload, 100.0)

    def test_unknown_stream_rejected(self, small_session):
        workload = SubscriptionWorkload(
            n_sites=small_session.n_sites,
            subscriptions={0: (StreamId(1, 99),)},
        )
        with pytest.raises(SubscriptionError):
            ForestProblem.from_workload(small_session, workload, 100.0)
