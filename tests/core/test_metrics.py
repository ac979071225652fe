"""Tests for the rejection / utilization metrics (Eq. 1, Eq. 3)."""

from __future__ import annotations

import pytest

from repro.core.base import BuildResult
from repro.core.forest import OverlayForest
from repro.core.metrics import (
    ForestMetrics,
    correlation_weighted_rejection,
    criticality_loss_ratio,
    mean_pairwise_rejection,
    pairwise_rejection_sum,
    rejection_ratio,
)
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.session.streams import StreamId
from tests.conftest import complete_cost, u_hat


def handmade_result() -> BuildResult:
    """Three nodes; u(1,0)=2, u(2,0)=1, u(2,1)=1; rejects r2(s0^0)."""
    problem = ForestProblem.from_tables(
        cost=complete_cost(3),
        inbound={0: 4, 1: 4, 2: 4},
        outbound={0: 4, 1: 4, 2: 4},
        group_members={
            StreamId(0, 0): {1, 2},
            StreamId(0, 1): {1},
            StreamId(1, 0): {2},
        },
        latency_bound_ms=10.0,
    )
    forest = OverlayForest()
    state = BuilderState(problem)
    satisfied_edges = [
        (StreamId(0, 0), 0, 1),
        (StreamId(0, 1), 0, 1),
        (StreamId(1, 0), 1, 2),
    ]
    for stream, parent, child in satisfied_edges:
        state.open_group(stream)
        tree = forest.tree(stream)
        tree.attach(parent, child, problem.edge_cost(parent, child))
        state.record_attach(tree, parent, child)
        forest.satisfied.append(SubscriptionRequest(child, stream))
    forest.rejected.append(
        (SubscriptionRequest(2, StreamId(0, 0)), RejectionReason.TREE_SATURATED)
    )
    return BuildResult(problem=problem, forest=forest, state=state, algorithm="hand")


class TestRejectionMetrics:
    def test_rejection_ratio(self):
        # 1 rejected of 4 total requests.
        assert rejection_ratio(handmade_result()) == pytest.approx(0.25)

    def test_pairwise_sum_eq1(self):
        # û/u per pair: (1,0): 0/2; (2,0): 1/1; (2,1): 0/1 -> sum = 1.0
        assert pairwise_rejection_sum(handmade_result()) == pytest.approx(1.0)

    def test_mean_pairwise(self):
        # Three requesting pairs.
        assert mean_pairwise_rejection(handmade_result()) == pytest.approx(1 / 3)

    def test_eq3_verbatim(self):
        # i=1: inner = 0, u_min = 1 -> 0.
        # i=2: inner = 1/1^2 + 0 = 1, u_min = min(1,1) = 1 -> 1.
        assert correlation_weighted_rejection(handmade_result()) == pytest.approx(1.0)

    def test_criticality_loss_ratio(self):
        # lost = 1*Q(2,0) = 1; mass = one unit per requesting pair = 3.
        assert criticality_loss_ratio(handmade_result()) == pytest.approx(1 / 3)

    def test_zero_requests_all_zero(self):
        problem = ForestProblem.from_tables(
            cost=complete_cost(2),
            inbound={0: 1, 1: 1},
            outbound={0: 1, 1: 1},
            group_members={},
            latency_bound_ms=1.0,
        )
        result = BuildResult(
            problem=problem,
            forest=OverlayForest(),
            state=BuilderState(problem),
            algorithm="none",
        )
        assert rejection_ratio(result) == 0.0
        assert pairwise_rejection_sum(result) == 0.0
        assert mean_pairwise_rejection(result) == 0.0
        assert correlation_weighted_rejection(result) == 0.0
        assert criticality_loss_ratio(result) == 0.0


class TestUhat:
    def test_u_hat_matrix(self):
        result = handmade_result()
        assert result.u_hat_matrix() == {2: {0: 1}}
        assert u_hat(result, 2, 0) == 1
        assert u_hat(result, 1, 0) == 0


class TestForestMetrics:
    def test_bundle_consistency(self):
        metrics = ForestMetrics.of(handmade_result())
        assert metrics.total_requests == 4
        assert metrics.rejected_requests == 1
        assert metrics.rejection_ratio == pytest.approx(0.25)
        assert metrics.n_groups == 3

    def test_out_utilization(self):
        # dout: node0=2 of 4, node1=1 of 4, node2=0 of 4.
        metrics = ForestMetrics.of(handmade_result())
        assert metrics.mean_out_utilization == pytest.approx(
            (0.5 + 0.25 + 0.0) / 3
        )

    def test_relay_fraction_zero_without_relays(self):
        # Every edge in the handmade forest is source -> subscriber.
        metrics = ForestMetrics.of(handmade_result())
        assert metrics.mean_relay_fraction == 0.0

    def test_path_and_depth(self):
        metrics = ForestMetrics.of(handmade_result())
        assert metrics.mean_path_cost_ms == pytest.approx(1.0)
        assert metrics.max_path_cost_ms == pytest.approx(1.0)
        assert metrics.mean_tree_depth == pytest.approx(1.0)

    def test_bounded_quantities(self, small_problem, rng):
        from repro.core.randomized import RandomJoinBuilder

        metrics = ForestMetrics.of(
            RandomJoinBuilder().build(small_problem, rng)
        )
        assert 0.0 <= metrics.rejection_ratio <= 1.0
        assert 0.0 <= metrics.mean_pairwise_rejection <= 1.0
        assert 0.0 <= metrics.criticality_loss_ratio <= 1.0
        assert 0.0 <= metrics.mean_out_utilization <= 1.0
        assert 0.0 <= metrics.mean_relay_fraction <= 1.0
