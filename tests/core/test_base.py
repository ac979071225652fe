"""Tests for the builder template and BuildResult."""

from __future__ import annotations

import pytest

from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.session.streams import StreamId
from tests.conftest import complete_cost, u_hat


def one_group_problem(outbound_source: int = 5) -> ForestProblem:
    return ForestProblem.from_tables(
        cost=complete_cost(3),
        inbound={0: 5, 1: 5, 2: 5},
        outbound={0: outbound_source, 1: 5, 2: 5},
        group_members={StreamId(0, 0): {1, 2}},
        latency_bound_ms=10.0,
    )


class TestBuildResult:
    def test_accounting_exact(self, rng):
        result = RandomJoinBuilder().build(one_group_problem(), rng)
        assert result.total_requests == 2
        assert not result.rejected
        result.verify()

    def test_rejection_recorded_with_reason(self, rng):
        # Source with zero usable out-degree: only the reserved first
        # dissemination succeeds... with O=1 even that one succeeds and
        # the second request must relay through node 1 or 2.
        result = RandomJoinBuilder().build(one_group_problem(1), rng)
        result.verify()
        assert result.total_requests == 2
        # both can still be satisfied: second subscriber relays via first
        assert len(result.satisfied) == 2

    def test_latency_starvation_rejects(self, rng):
        problem = ForestProblem.from_tables(
            cost={
                0: {0: 0.0, 1: 1.0, 2: 50.0},
                1: {0: 1.0, 1: 0.0, 2: 50.0},
                2: {0: 50.0, 1: 50.0, 2: 0.0},
            },
            inbound={0: 5, 1: 5, 2: 5},
            outbound={0: 5, 1: 5, 2: 5},
            group_members={StreamId(0, 0): {1, 2}},
            latency_bound_ms=10.0,
        )
        result = RandomJoinBuilder().build(problem, rng)
        rejected = {r.subscriber for r, _ in result.rejected}
        assert rejected == {2}
        reasons = {reason for _, reason in result.rejected}
        assert reasons == {RejectionReason.TREE_SATURATED}

    def test_verify_detects_planted_violation(self, rng):
        result = RandomJoinBuilder().build(one_group_problem(), rng)
        result.state.dout[0] = 99
        with pytest.raises(Exception):
            result.verify()

    def test_verify_detects_planted_nan_path_cost(self, rng):
        result = RandomJoinBuilder().build(one_group_problem(), rng)
        request = result.satisfied[0]
        tree = result.forest.trees[request.stream]
        tree.path_costs()[request.subscriber] = float("nan")
        with pytest.raises(AssertionError, match="latency bound"):
            result.verify()

    def test_u_hat_counts_by_pair(self, rng):
        problem = ForestProblem.from_tables(
            cost=complete_cost(2, off_diagonal=99.0),
            inbound={0: 5, 1: 5},
            outbound={0: 5, 1: 5},
            group_members={StreamId(0, 0): {1}},
            latency_bound_ms=10.0,
        )
        result = RandomJoinBuilder().build(problem, rng)
        assert u_hat(result, 1, 0) == 1

    def test_satisfied_request_parents_exist(self, small_problem, rng):
        result = RandomJoinBuilder().build(small_problem, rng)
        for request in result.satisfied:
            tree = result.forest.trees[request.stream]
            assert tree.parent(request.subscriber) is not None
