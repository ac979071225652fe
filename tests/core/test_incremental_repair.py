"""Equivalence and property tests for :class:`IncrementalRepairer`.

The repairer must produce a result indistinguishable from a from-scratch
build as far as every structural invariant is concerned (the auditor
re-derives degree ledgers, reservation accounting, latency bounds and
request accounting from first principles), while leaving surviving
parents untouched.
"""

from __future__ import annotations

from repro.core.incremental import IncrementalRepairer, churn_rate
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.session.streams import StreamId
from repro.sim.invariants import InvariantAuditor
from repro.util.rng import RngStream
from tests.conftest import children, complete_cost, is_leaf, out_degree


S0 = StreamId(0, 0)
S1 = StreamId(1, 0)


def roomy_problem(groups=None) -> ForestProblem:
    """Six nodes, ample capacity, unit costs everywhere."""
    if groups is None:
        groups = {S0: {1, 2, 3, 4, 5}, S1: {0, 2, 3}}
    return ForestProblem.from_tables(
        cost=complete_cost(6),
        inbound={i: 10 for i in range(6)},
        outbound={i: 10 for i in range(6)},
        group_members=groups,
        latency_bound_ms=10.0,
    )


def build(problem: ForestProblem, seed: int = 3):
    result = RandomJoinBuilder().build(problem, RngStream(seed))
    result.verify()
    return result


def assert_clean(result) -> None:
    """Full verification: invariants + a from-first-principles audit."""
    result.verify()
    auditor = InvariantAuditor(strict=False)
    violations = auditor.audit_build(result)
    assert not violations, [v.render() for v in violations]


class TestNoChange:
    def test_identical_problem_is_pure_carry(self):
        previous = build(roomy_problem())
        repair = IncrementalRepairer().repair(previous, roomy_problem())
        assert repair.feasible
        assert repair.carried == len(previous.satisfied)
        assert repair.orphaned == repair.lost == 0
        assert repair.fresh_joined == repair.fresh_rejected == 0
        assert churn_rate(previous, repair.result) == 0.0
        assert sorted(repair.result.forest.edges()) == sorted(previous.forest.edges())
        assert_clean(repair.result)

    def test_carry_preserves_every_parent(self):
        previous = build(roomy_problem())
        repair = IncrementalRepairer().repair(previous, roomy_problem())
        for request in previous.satisfied:
            old_parent = previous.forest.trees[request.stream].parent(
                request.subscriber
            )
            new_parent = repair.result.forest.trees[request.stream].parent(
                request.subscriber
            )
            assert new_parent == old_parent


class TestLeafRemoval:
    def test_removed_leaf_released_and_clean(self):
        previous = build(roomy_problem())
        leaf = next(
            r
            for r in previous.satisfied
            if is_leaf(previous.forest.trees[r.stream], r.subscriber)
        )
        groups = {
            S0: {1, 2, 3, 4, 5},
            S1: {0, 2, 3},
        }
        groups[leaf.stream] = set(groups[leaf.stream]) - {leaf.subscriber}
        repair = IncrementalRepairer().repair(previous, roomy_problem(groups))
        assert repair.feasible
        assert leaf not in repair.result.satisfied
        assert leaf.subscriber not in repair.result.forest.trees[leaf.stream]
        assert_clean(repair.result)


class TestInteriorRemoval:
    def test_interior_removal_rehomes_subtree(self):
        previous = build(roomy_problem())
        interior = next(
            r
            for r in previous.satisfied
            if not is_leaf(previous.forest.trees[r.stream], r.subscriber)
        )
        tree = previous.forest.trees[interior.stream]
        orphan_children = children(tree, interior.subscriber)
        groups = {S0: set(range(1, 6)), S1: {0, 2, 3}}
        groups[interior.stream] = set(groups[interior.stream]) - {
            interior.subscriber
        }
        repair = IncrementalRepairer().repair(previous, roomy_problem(groups))
        assert repair.feasible
        assert repair.orphaned >= len(orphan_children)
        assert repair.rejoined == repair.orphaned
        new_tree = repair.result.forest.trees[interior.stream]
        assert interior.subscriber not in new_tree
        for child in orphan_children:
            assert child in new_tree  # re-homed, still served
        assert_clean(repair.result)

    def test_untouched_tree_is_not_disturbed(self):
        previous = build(roomy_problem())
        # Remove one S0 subscriber; every S1 parent must survive as-is.
        groups = {S0: {1, 2, 3, 4}, S1: {0, 2, 3}}
        repair = IncrementalRepairer().repair(previous, roomy_problem(groups))
        old_tree = previous.forest.trees[S1]
        new_tree = repair.result.forest.trees[S1]
        for request in previous.satisfied:
            if request.stream == S1:
                assert new_tree.parent(request.subscriber) == old_tree.parent(
                    request.subscriber
                )


class TestTreeLifecycle:
    def test_dropped_group_releases_all_capacity(self):
        previous = build(roomy_problem())
        repair = IncrementalRepairer().repair(
            previous, roomy_problem({S0: {1, 2, 3, 4, 5}})
        )
        assert repair.feasible
        assert repair.dropped_trees == 1
        assert S1 not in repair.result.forest.trees
        # The S1 source forwards nothing anymore.
        assert out_degree(repair.result.forest, 1) <= 5
        assert_clean(repair.result)

    def test_new_group_joins_fresh(self):
        previous = build(roomy_problem({S0: {1, 2, 3, 4, 5}}))
        repair = IncrementalRepairer().repair(previous, roomy_problem())
        assert repair.feasible
        assert repair.fresh_joined == 3  # the whole S1 group is new
        assert repair.fresh_rejected == 0
        assert_clean(repair.result)

    def test_previously_rejected_requests_are_retried(self):
        # Node 3 unreachable within the bound at build time; the repair
        # against a problem with a feasible cost must pick it up fresh.
        cost = complete_cost(3, off_diagonal=1.0)
        cost[0][2] = cost[2][0] = 99.0
        cost[1][2] = cost[2][1] = 99.0
        unreachable = ForestProblem.from_tables(
            cost=cost,
            inbound={i: 10 for i in range(3)},
            outbound={i: 10 for i in range(3)},
            group_members={S0: {1, 2}},
            latency_bound_ms=10.0,
        )
        previous = build(unreachable)
        assert any(r.subscriber == 2 for r, _ in previous.rejected)
        reachable = ForestProblem.from_tables(
            cost=complete_cost(3),
            inbound={i: 10 for i in range(3)},
            outbound={i: 10 for i in range(3)},
            group_members={S0: {1, 2}},
            latency_bound_ms=10.0,
        )
        repair = IncrementalRepairer().repair(previous, reachable)
        assert repair.feasible
        assert SubscriptionRequest(2, S0) in repair.result.satisfied
        assert_clean(repair.result)


class TestJoinsAndLeaves:
    """A subscription joining or leaving between rounds is a repair."""

    def test_leaf_leave_releases_both_degrees(self):
        previous = build(roomy_problem())
        leaf = next(
            r
            for r in previous.satisfied
            if is_leaf(previous.forest.trees[r.stream], r.subscriber)
        )
        parent = previous.forest.trees[leaf.stream].parent(leaf.subscriber)
        dout, din = previous.state.dout[parent], previous.state.din[leaf.subscriber]
        groups = {S0: {1, 2, 3, 4, 5}, S1: {0, 2, 3}}
        groups[leaf.stream] = groups[leaf.stream] - {leaf.subscriber}
        repair = IncrementalRepairer().repair(previous, roomy_problem(groups))
        assert repair.result.state.dout[parent] == dout - 1
        assert repair.result.state.din[leaf.subscriber] == din - 1
        # The previous round's ledger is left as it was.
        assert previous.state.dout[parent] == dout
        assert previous.state.din[leaf.subscriber] == din

    def test_fresh_request_respects_inbound_bound(self):
        def problem(members) -> ForestProblem:
            return ForestProblem.from_tables(
                cost=complete_cost(3),
                inbound={0: 5, 1: 0, 2: 5},
                outbound={i: 5 for i in range(3)},
                group_members={S0: members},
                latency_bound_ms=10.0,
            )

        previous = build(problem({2}))
        repair = IncrementalRepairer().repair(previous, problem({1, 2}))
        assert repair.feasible
        assert (repair.fresh_joined, repair.fresh_rejected) == (0, 1)
        assert repair.result.rejected == [
            (SubscriptionRequest(1, S0), RejectionReason.INBOUND_SATURATED)
        ]
        assert_clean(repair.result)

    def test_leave_then_rejoin_roundtrip(self):
        previous = build(roomy_problem())
        leaf = next(
            r
            for r in previous.satisfied
            if is_leaf(previous.forest.trees[r.stream], r.subscriber)
        )
        groups = {S0: {1, 2, 3, 4, 5}, S1: {0, 2, 3}}
        groups[leaf.stream] = groups[leaf.stream] - {leaf.subscriber}
        left = IncrementalRepairer().repair(previous, roomy_problem(groups))
        back = IncrementalRepairer().repair(left.result, roomy_problem())
        assert back.feasible
        assert back.carried == len(previous.satisfied) - 1
        assert back.fresh_joined == 1
        assert leaf in back.result.satisfied
        assert_clean(back.result)


class TestInfeasibility:
    def chain_problem(self, members) -> ForestProblem:
        """0 -> 1 -> 2 is the only feasible chain within the bound."""
        cost = complete_cost(3, off_diagonal=9.0)
        cost[0][1] = cost[1][0] = 1.0
        cost[1][2] = cost[2][1] = 1.0
        return ForestProblem.from_tables(
            cost=cost,
            inbound={i: 10 for i in range(3)},
            outbound={i: 10 for i in range(3)},
            group_members={S0: set(members)},
            latency_bound_ms=5.0,
        )

    def test_disconnected_residue_flags_infeasible(self):
        # Build the 0 -> 1 -> 2 chain deterministically.
        from repro.core.base import BuildResult
        from repro.core.forest import OverlayForest
        from repro.core.node_join import try_join
        from repro.core.state import BuilderState

        problem = self.chain_problem({1, 2})
        forest = OverlayForest()
        state = BuilderState(problem)
        state.open_group(S0)
        tree = forest.tree(S0)
        for node in (1, 2):
            assert try_join(problem, state, tree, node).accepted
            forest.satisfied.append(SubscriptionRequest(node, S0))
        previous = BuildResult(
            problem=problem, forest=forest, state=state, algorithm="manual"
        )
        previous.verify()
        assert len(previous.satisfied) == 2  # chain built
        repair = IncrementalRepairer().repair(
            previous, self.chain_problem({2})
        )
        # Node 1 left: node 2's only feasible relay is gone.
        assert not repair.feasible
        assert repair.lost == 1
        # The result still accounts every request (2 is rejected).
        assert_clean(repair.result)

    def test_swap_evicting_carried_request_flags_infeasible(self):
        """A victim swap that drops a previously-served request counts as
        a loss: the repair must not report itself feasible."""
        from repro.core.base import BuildResult
        from repro.core.forest import OverlayForest
        from repro.core.state import BuilderState

        sa, sb, sb2 = StreamId(0, 0), StreamId(1, 0), StreamId(1, 1)
        groups_before = {sa: {1, 2, 3}, sb: {3}, sb2: {3}}
        before = ForestProblem.from_tables(
            cost=complete_cost(4),
            inbound={i: 10 for i in range(4)},
            outbound={0: 2, 1: 2, 2: 10, 3: 10},
            group_members=groups_before,
            latency_bound_ms=10.0,
        )
        forest = OverlayForest()
        state = BuilderState(before)
        for stream, edges in (
            (sa, ((0, 1), (0, 2), (2, 3))),
            (sb, ((1, 3),)),
            (sb2, ((1, 3),)),
        ):
            state.open_group(stream)
            tree = forest.tree(stream)
            for parent, child in edges:
                tree.attach(parent, child, before.edge_cost(parent, child))
                state.record_attach(tree, parent, child)
        for stream, members in groups_before.items():
            for member in members:
                forest.satisfied.append(SubscriptionRequest(member, stream))
        previous = BuildResult(
            problem=before, forest=forest, state=state, algorithm="manual"
        )
        previous.verify()

        # Node 2 (node 3's relay in T_A) leaves; nodes 0 and 1 are
        # outbound-saturated after the carry, so node 3's only way back
        # into T_A is the CO-RJ swap — which evicts the carried, less
        # critical S_B subscription.
        after = ForestProblem.from_tables(
            cost=complete_cost(4),
            inbound={i: 10 for i in range(4)},
            outbound={0: 1, 1: 2, 2: 10, 3: 10},
            group_members={sa: {1, 3}, sb: {3}, sb2: {3}},
            latency_bound_ms=10.0,
        )
        repair = IncrementalRepairer(use_swap=True).repair(previous, after)
        assert SubscriptionRequest(3, sa) in repair.result.satisfied
        evicted = {r for r, _ in repair.result.rejected}
        assert evicted & {SubscriptionRequest(3, sb), SubscriptionRequest(3, sb2)}
        assert repair.lost == 1
        assert not repair.feasible
        assert_clean(repair.result)

    def test_swap_fallback_keeps_invariants(self):
        problem = ForestProblem.from_tables(
            cost=complete_cost(4),
            inbound={i: 10 for i in range(4)},
            outbound={0: 1, 1: 1, 2: 1, 3: 1},
            group_members={
                StreamId(0, 0): {3},
                StreamId(1, 0): {3},
                StreamId(1, 1): {3},
            },
            latency_bound_ms=10.0,
        )
        previous = build(problem, seed=17)
        repair = IncrementalRepairer(use_swap=True).repair(previous, problem)
        assert_clean(repair.result)


class TestTightenedConstraints:
    def test_carried_edges_revalidated_against_new_bounds(self):
        """Direct API use with tightened capacities must not return a
        constraint-violating forest — over-limit edges orphan instead."""
        previous = build(roomy_problem())
        tight = ForestProblem.from_tables(
            cost=complete_cost(6),
            inbound={i: 1 for i in range(6)},  # one stream each, max
            outbound={i: 10 for i in range(6)},
            group_members={S0: {1, 2, 3, 4, 5}, S1: {0, 2, 3}},
            latency_bound_ms=10.0,
        )
        repair = IncrementalRepairer().repair(previous, tight)
        assert_clean(repair.result)  # degree bounds hold by audit

    def test_carried_edges_revalidated_against_new_bound(self):
        previous = build(roomy_problem())
        short = ForestProblem.from_tables(
            cost=complete_cost(6),
            inbound={i: 10 for i in range(6)},
            outbound={i: 10 for i in range(6)},
            group_members={S0: {1, 2, 3, 4, 5}, S1: {0, 2, 3}},
            latency_bound_ms=1.5,  # only single-hop paths survive
        )
        repair = IncrementalRepairer().repair(previous, short)
        assert_clean(repair.result)
        for request in repair.result.satisfied:
            tree = repair.result.forest.trees[request.stream]
            assert tree.cost_from_source(request.subscriber) < 1.5
