"""Tests for :func:`~repro.core.incremental.churn_rate`."""

from __future__ import annotations

import pytest

from repro.errors import OverlayError
from repro.core.incremental import churn_rate
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from tests.conftest import complete_cost, is_leaf, unserve


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
        """Builds of two problems with no request in common."""
        groups = roomy_problem().groups
        a, b = (
            RandomJoinBuilder().build(
                ForestProblem.from_tables(
                    cost=complete_cost(4),
                    inbound={i: 10 for i in range(4)},
                    outbound={i: 10 for i in range(4)},
                    group_members={group.stream: group.subscribers},
                    latency_bound_ms=10.0,
                ),
                RngStream(3),
            )
            for group in groups
        )
        assert a.satisfied and b.satisfied
        assert not set(a.satisfied) & set(b.satisfied)
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
            if is_leaf(a.forest.trees[r.stream], r.subscriber)
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
    — and a forest whose receivers are not its satisfied requests fails."""

    def pair_with_one_moved_leaf(self):
        problem = roomy_problem()
        a = RandomJoinBuilder().build(problem, RngStream(3))
        b = RandomJoinBuilder().build(problem, RngStream(3))
        leaf = next(
            r for r in b.satisfied if is_leaf(b.forest.trees[r.stream], r.subscriber)
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
    def test_receivers_that_are_not_satisfied_requests_raise(self, side):
        """A relay that stays in its tree but is no longer a satisfied
        request would be miscounted by the parent-map walk."""
        a, b, _leaf = self.pair_with_one_moved_leaf()
        edited = a if side == "before" else b
        interior = next(
            r
            for r in edited.satisfied
            if not is_leaf(edited.forest.trees[r.stream], r.subscriber)
        )
        unserve(edited, interior)
        assert interior.subscriber in edited.forest.trees[interior.stream]
        with pytest.raises(OverlayError, match="not its satisfied requests"):
            churn_rate(a, b)


def _descends(tree, node: int, ancestor: int) -> bool:
    """True when ``node`` sits in ``ancestor``'s subtree."""
    current = node
    while current is not None:
        if current == ancestor:
            return True
        current = tree.parent(current)
    return False
