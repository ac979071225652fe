"""Tests for incremental overlay maintenance."""

from __future__ import annotations

import pytest

from repro.errors import OverlayError, SubscriptionError
from repro.core.incremental import (
    _has_rejection_record,
    add_subscription,
    churn_rate,
    remove_subscription,
)
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from tests.conftest import complete_cost


def roomy_problem() -> ForestProblem:
    """Four nodes with ample capacity; node 3 initially subscribes nothing."""
    return ForestProblem.from_tables(
        cost=complete_cost(4),
        inbound={i: 10 for i in range(4)},
        outbound={i: 10 for i in range(4)},
        group_members={
            StreamId(0, 0): {1, 2, 3},
            StreamId(1, 0): {0, 2},
        },
        latency_bound_ms=10.0,
    )


@pytest.fixture
def built(rng):
    result = RandomJoinBuilder().build(roomy_problem(), rng)
    result.verify()
    return result


class TestAddSubscription:
    def test_add_after_rejection_rejoins(self, rng):
        # Saturate by tiny inbound at node 3, then lift... capacity is
        # immutable, so instead: reject by latency and re-add a feasible
        # request after costs are irrelevant -> use a fresh group member
        # that was rejected during the build.
        problem = ForestProblem.from_tables(
            cost=complete_cost(3, off_diagonal=99.0),
            inbound={i: 5 for i in range(3)},
            outbound={i: 5 for i in range(3)},
            group_members={StreamId(0, 0): {1, 2}},
            latency_bound_ms=10.0,
        )
        result = RandomJoinBuilder().build(problem, rng)
        assert len(result.rejected) == 2  # everything latency-infeasible
        # Make node 1 reachable and retry incrementally.
        problem.set_cost(0, 1, 1.0)
        request = SubscriptionRequest(1, StreamId(0, 0))
        outcome = add_subscription(result, request)
        assert outcome.accepted
        assert request in result.forest.satisfied
        assert result.u_hat(1, 0) == 0  # stale rejection record dropped
        result.verify()

    def test_add_already_satisfied_rejected(self, built):
        satisfied = built.satisfied[0]
        with pytest.raises(OverlayError):
            add_subscription(built, satisfied)

    def test_add_unknown_subscriber_rejected(self, built):
        with pytest.raises(SubscriptionError):
            add_subscription(
                built, SubscriptionRequest(99, StreamId(0, 0))
            )

    def test_add_respects_bounds(self, rng):
        problem = ForestProblem.from_tables(
            cost=complete_cost(3),
            inbound={0: 5, 1: 0, 2: 5},
            outbound={i: 5 for i in range(3)},
            group_members={StreamId(0, 0): {1, 2}},
            latency_bound_ms=10.0,
        )
        result = RandomJoinBuilder().build(problem, rng)
        request = next(r for r, _ in result.rejected if r.subscriber == 1)
        outcome = add_subscription(result, request)
        assert not outcome.accepted
        assert outcome.reason is RejectionReason.INBOUND_SATURATED
        result.verify()

    def test_add_with_swap_fallback(self, rng):
        # Build a saturated instance where plain join fails but a CO-RJ
        # style swap can serve the request.
        problem = ForestProblem.from_tables(
            cost=complete_cost(4),
            inbound={i: 10 for i in range(4)},
            outbound={0: 1, 1: 1, 2: 10, 3: 10},
            group_members={
                StreamId(0, 0): {3},      # critical: u(3,0) = 1
                StreamId(1, 0): {3},
                StreamId(1, 1): {3},
            },
            latency_bound_ms=10.0,
        )
        result = RandomJoinBuilder().build(problem, RngStream(17))
        result.verify()
        rejected = [r for r, _ in result.rejected]
        if not rejected:
            pytest.skip("seed produced no rejection to repair")
        request = rejected[0]
        outcome = add_subscription(result, request, use_swap=True)
        result.verify()
        # swap either worked or the rejection stands recorded
        if outcome.accepted:
            assert request in result.forest.satisfied
        else:
            assert any(r == request for r, _ in result.forest.rejected)


class TestRemoveSubscription:
    def test_remove_leaf_releases_capacity(self, built):
        leafs = [
            request
            for request in built.satisfied
            if built.forest.trees[request.stream].is_leaf(request.subscriber)
        ]
        request = leafs[0]
        parent = built.forest.trees[request.stream].parent(request.subscriber)
        dout_before = built.state.dout[parent]
        remove_subscription(built, request)
        assert built.state.dout[parent] == dout_before - 1
        assert request not in built.forest.satisfied
        built.forest.validate()

    def test_remove_interior_keeps_edge(self, built):
        interior = [
            request
            for request in built.satisfied
            if not built.forest.trees[request.stream].is_leaf(
                request.subscriber
            )
        ]
        if not interior:
            pytest.skip("no interior subscriber in this build")
        request = interior[0]
        remove_subscription(built, request)
        # The node keeps relaying: still in the tree.
        assert request.subscriber in built.forest.trees[request.stream]
        assert request not in built.forest.satisfied

    def test_remove_unsatisfied_rejected(self, built):
        ghost = SubscriptionRequest(3, StreamId(1, 0))
        if ghost in built.forest.satisfied:
            built.forest.satisfied.remove(ghost)
        with pytest.raises(OverlayError):
            remove_subscription(built, ghost)

    def test_add_after_remove_roundtrip(self, built):
        leafs = [
            request
            for request in built.satisfied
            if built.forest.trees[request.stream].is_leaf(request.subscriber)
        ]
        request = leafs[0]
        remove_subscription(built, request)
        outcome = add_subscription(built, request)
        assert outcome.accepted
        built.verify()


class TestChurnRate:
    def test_identical_builds_zero_churn(self, rng):
        problem = roomy_problem()
        a = RandomJoinBuilder().build(problem, RngStream(3))
        b = RandomJoinBuilder().build(problem, RngStream(3))
        assert churn_rate(a, b) == 0.0

    def test_different_shuffles_nonnegative(self, small_problem):
        a = RandomJoinBuilder().build(small_problem, RngStream(1))
        b = RandomJoinBuilder().build(small_problem, RngStream(2))
        assert 0.0 <= churn_rate(a, b) <= 1.0

    def test_disjoint_satisfied_zero(self, rng):
        problem = roomy_problem()
        a = RandomJoinBuilder().build(problem, RngStream(3))
        b = RandomJoinBuilder().build(problem, RngStream(3))
        b.forest.satisfied.clear()
        assert churn_rate(a, b) == 0.0

    def test_empty_forests_zero(self):
        """Both builds empty: nothing in common, churn is 0 (not NaN)."""
        problem = ForestProblem.from_tables(
            cost=complete_cost(2, off_diagonal=99.0),
            inbound={0: 5, 1: 5},
            outbound={0: 5, 1: 5},
            group_members={StreamId(0, 0): {1}},
            latency_bound_ms=10.0,  # everything latency-infeasible
        )
        a = RandomJoinBuilder().build(problem, RngStream(1))
        b = RandomJoinBuilder().build(problem, RngStream(2))
        assert not a.satisfied and not b.satisfied
        assert churn_rate(a, b) == 0.0

    def test_single_tree_moved_parent_counted(self):
        """One common request whose parent differs: churn is exactly 1."""
        problem = roomy_problem()
        a = RandomJoinBuilder().build(problem, RngStream(3))
        b = RandomJoinBuilder().build(problem, RngStream(3))
        request = next(
            r
            for r in a.satisfied
            if a.forest.trees[r.stream].is_leaf(r.subscriber)
        )
        tree = b.forest.trees[request.stream]
        old_parent = tree.parent(request.subscriber)
        new_parent = next(
            node
            for node in tree.members()
            if node not in (request.subscriber, old_parent)
            and not _descends(tree, node, request.subscriber)
        )
        tree.detach_leaf(request.subscriber)
        tree.attach(new_parent, request.subscriber,
                    problem.edge_cost(new_parent, request.subscriber))
        moved = sum(
            1
            for r in b.satisfied
            if r in a.satisfied
            and b.forest.trees[r.stream].parent(r.subscriber)
            != a.forest.trees[r.stream].parent(r.subscriber)
        )
        common = sum(1 for r in b.satisfied if r in a.satisfied)
        assert churn_rate(a, b) == moved / common


class TestChurnRateWalksTrees:
    """Shared trees are skipped, the rest compared parent map to parent map
    — unless a forest's receivers are not its satisfied requests."""

    def pair_with_one_moved_leaf(self):
        problem = roomy_problem()
        a = RandomJoinBuilder().build(problem, RngStream(3))
        b = RandomJoinBuilder().build(problem, RngStream(3))
        leaf = next(
            r for r in b.satisfied if b.forest.trees[r.stream].is_leaf(r.subscriber)
        )
        tree = b.forest.trees[leaf.stream]
        new_parent = next(
            node
            for node in tree.members()
            if node not in (leaf.subscriber, tree.parent(leaf.subscriber))
        )
        tree.detach_leaf(leaf.subscriber)
        tree.attach(
            new_parent, leaf.subscriber, problem.edge_cost(new_parent, leaf.subscriber)
        )
        return a, b, leaf

    def test_trees_shared_by_identity_only_count(self):
        a, b, leaf = self.pair_with_one_moved_leaf()
        expected = 1 / len(a.satisfied)
        assert churn_rate(a, b) == expected
        for stream, tree in a.forest.trees.items():
            if stream != leaf.stream:
                b.forest.trees[stream] = tree
        assert churn_rate(a, b) == expected

    @pytest.mark.parametrize("side", ["before", "after"])
    def test_interior_removal_keeps_request_semantics(self, side):
        """The relay stays in its tree but is no longer a satisfied
        request, so it is not one of the common requests either."""
        a, b, leaf = self.pair_with_one_moved_leaf()
        edited = a if side == "before" else b
        interior = next(
            r
            for r in edited.satisfied
            if not edited.forest.trees[r.stream].is_leaf(r.subscriber)
        )
        remove_subscription(edited, interior)
        assert interior.subscriber in edited.forest.trees[interior.stream]
        assert churn_rate(a, b) == 1 / len(edited.satisfied)


def _descends(tree, node: int, ancestor: int) -> bool:
    """True when ``node`` sits in ``ancestor``'s subtree."""
    current = node
    while current is not None:
        if current == ancestor:
            return True
        current = tree.parent(current)
    return False


class TestRejectionRecords:
    def test_has_rejection_record_empty(self, built):
        built.forest.rejected.clear()
        ghost = SubscriptionRequest(3, StreamId(1, 0))
        assert not _has_rejection_record(built, ghost)

    def test_has_rejection_record_matches_exact_request(self, built):
        ghost = SubscriptionRequest(3, StreamId(1, 0))
        built.forest.rejected.append(
            (ghost, RejectionReason.TREE_SATURATED)
        )
        assert _has_rejection_record(built, ghost)
        other = SubscriptionRequest(2, StreamId(1, 0))
        if not any(r == other for r, _ in built.forest.rejected):
            assert not _has_rejection_record(built, other)


class TestRemoveEdgeCases:
    def test_remove_from_empty_forest_raises(self, rng):
        problem = roomy_problem()
        result = RandomJoinBuilder().build(problem, rng)
        result.forest.satisfied.clear()
        result.forest.trees.clear()
        with pytest.raises(OverlayError):
            remove_subscription(
                result, SubscriptionRequest(1, StreamId(0, 0))
            )

    def test_remove_victim_evicted_request_raises(self, built):
        """A CO-RJ victim is no longer satisfied; removing it must fail."""
        victim = next(
            r
            for r in built.satisfied
            if built.forest.trees[r.stream].is_leaf(r.subscriber)
        )
        tree = built.forest.trees[victim.stream]
        parent = tree.detach_leaf(victim.subscriber)
        built.state.record_detach(tree, parent, victim.subscriber)
        built.forest.satisfied.remove(victim)
        built.forest.rejected.append(
            (victim, RejectionReason.VICTIM_SWAPPED)
        )
        with pytest.raises(OverlayError):
            remove_subscription(built, victim)

    def test_remove_last_leaf_restores_reservation(self, rng):
        """Detaching the source's only child re-reserves the m-hat slot."""
        problem = ForestProblem.from_tables(
            cost=complete_cost(2),
            inbound={0: 5, 1: 5},
            outbound={0: 5, 1: 5},
            group_members={StreamId(0, 0): {1}},
            latency_bound_ms=10.0,
        )
        result = RandomJoinBuilder().build(problem, rng)
        request = SubscriptionRequest(1, StreamId(0, 0))
        assert request in result.satisfied
        assert result.state.m_hat[0] == 0  # released on dissemination
        remove_subscription(result, request)
        assert not result.forest.trees[StreamId(0, 0)].disseminated
        assert result.state.m_hat[0] == 1  # reservation re-established
        assert result.state.dout[0] == 0

    def test_remove_invalidates_u_hat_cache(self, built):
        """Regression: stale ``u_hat`` caches survived a leave."""
        built.u_hat_matrix()  # populate the cache
        leaf = next(
            r
            for r in built.satisfied
            if built.forest.trees[r.stream].is_leaf(r.subscriber)
        )
        remove_subscription(built, leaf)
        assert built._u_hat_cache is None
        # A rejection recorded after the leave must be visible the next
        # time the matrix is read (the stale cache would have hidden it).
        ghost = SubscriptionRequest(leaf.subscriber, leaf.stream)
        built.forest.rejected.append(
            (ghost, RejectionReason.TREE_SATURATED)
        )
        assert built.u_hat(ghost.subscriber, ghost.source) == 1
