"""The delta repair against its oracle, the full replay.

:class:`~repro.core.incremental.IncrementalRepairer` shares untouched
trees with the previous round, re-carries or clones only what it writes
to and carries the ledger by copy.  Every test here runs it through
:func:`tests.reference_paths.repair_checked_against_replay`, which pins
the outcome to the replay (trees in attach order, rejected sequence,
ledger, report counts), audits it, and checks that the previous result
was not touched and that every tree not reported rewritten is the
previous round's object.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.base import BuildResult
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.forest import OverlayForest
from repro.core.incremental import IncrementalRepairer
from repro.core.model import MulticastGroup, RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem, ProblemDelta
from repro.core.randomized import RandomJoinBuilder
from repro.core.state import BuilderState
from repro.session.streams import StreamId
from repro.sim.invariants import InvariantAuditor
from repro.util.rng import RngStream
from tests.conftest import complete_cost, degree_tables, unserve
from tests.reference_paths import (
    repair_checked_against_replay,
    result_snapshot,
)


def tables_problem(n, groups, inbound=10, outbound=10, bound=10.0, cost=None):
    """A problem over ``n`` nodes; scalar bounds apply to every node."""
    if isinstance(inbound, int):
        inbound = {i: inbound for i in range(n)}
    if isinstance(outbound, int):
        outbound = {i: outbound for i in range(n)}
    return ForestProblem.from_tables(
        cost=cost if cost is not None else complete_cost(n),
        inbound=inbound,
        outbound=outbound,
        group_members=groups,
        latency_bound_ms=bound,
    )


def evolved(problem: ForestProblem, groups: dict) -> ForestProblem:
    """``problem`` with its groups replaced; tables shared like a live round."""
    new_groups = [
        MulticastGroup(stream, frozenset(members))
        for stream, members in sorted(groups.items())
    ]
    old_by = {group.stream: group for group in problem.groups}
    # Unchanged groups keep their object, as the server's assembly does.
    new_groups = [
        old_by[g.stream]
        if g.stream in old_by and old_by[g.stream].subscribers == g.subscribers
        else g
        for g in new_groups
    ]
    return ForestProblem.evolve_delta(
        problem, ProblemDelta.between(problem.groups, new_groups)
    )


def manual_result(problem: ForestProblem, edges: dict) -> BuildResult:
    """A result with exactly the given ``stream -> ((parent, child), ...)``."""
    forest = OverlayForest()
    state = BuilderState(problem)
    for group in problem.groups:
        state.open_group(group.stream)
        tree = forest.tree(group.stream)
        for parent, child in edges.get(group.stream, ()):
            tree.attach(parent, child, problem.edge_cost(parent, child))
            state.record_attach(tree, parent, child)
            forest.satisfied.append(SubscriptionRequest(child, group.stream))
        for request in group.requests():
            if request.subscriber not in tree:
                forest.rejected.append((request, RejectionReason.TREE_SATURATED))
    result = BuildResult(
        problem=problem, forest=forest, state=state, algorithm="manual"
    )
    result.verify()
    return result


SA, SB, SB2 = StreamId(0, 0), StreamId(1, 0), StreamId(1, 1)


class TestSharing:
    def many_trees(self):
        """12 nodes, 10 streams each: 120 trees of three members."""
        groups = {
            StreamId(site, index): {(site + 1 + index + k) % 12 for k in range(3)}
            - {site}
            for site in range(12)
            for index in range(10)
        }
        return tables_problem(12, groups, inbound=40, outbound=40)

    def test_one_event_round_shares_every_untouched_tree(self):
        problem = self.many_trees()
        previous = RandomJoinBuilder().build(problem, RngStream(5))
        assert len(previous.forest.trees) >= 100
        groups = {g.stream: set(g.subscribers) for g in problem.groups}
        changed = StreamId(3, 4)
        groups[changed] = groups[changed] - {min(groups[changed])} | {0}
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, evolved(problem, groups)
        )
        assert report.rewritten == (changed,)
        for stream, tree in report.result.forest.trees.items():
            if stream != changed:
                assert tree is previous.forest.trees[stream]
        assert report.fresh_joined == 1 and report.feasible

    def test_no_change_shares_everything(self):
        problem = self.many_trees()
        previous = RandomJoinBuilder().build(problem, RngStream(5))
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, ForestProblem.evolve_delta(
                problem, ProblemDelta()
            )
        )
        assert report.rewritten == ()
        assert report.carried == len(previous.satisfied)
        assert report.result.forest.trees is not previous.forest.trees
        assert report.result.forest.satisfied is not previous.forest.satisfied

    def test_dropped_and_new_groups_are_listed_rewritten(self):
        problem = self.many_trees()
        previous = RandomJoinBuilder().build(problem, RngStream(5))
        groups = {g.stream: set(g.subscribers) for g in problem.groups}
        dropped, added = StreamId(0, 0), StreamId(0, 10)
        del groups[dropped]
        groups[added] = {4, 5}
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, evolved(problem, groups)
        )
        assert set(report.rewritten) == {dropped, added}
        assert report.dropped_trees == 1 and report.fresh_joined == 2
        assert dropped not in report.result.forest.trees


class TestDisruption:
    def test_rehomed_orphan_is_the_rounds_disruption(self):
        problem = tables_problem(4, {SA: {1, 2, 3}, SB: {3}})
        previous = manual_result(
            problem, {SA: ((0, 1), (1, 2), (0, 3)), SB: ((1, 3),)}
        )
        # Relay 1 leaves SA: 2 re-homes under another parent, 3 stays put.
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, evolved(problem, {SA: {2, 3}, SB: {3}})
        )
        assert (report.carried, report.orphaned, report.moved) == (2, 1, 1)
        assert report.disruption == 1 / 3
        assert report.rewritten == (SA,)


class TestCopyOnWrite:
    def swap_round(self):
        """Node 3's new request for SA only fits by evicting (3, SB).

        0 and 1 are outbound-saturated after the carry, 3 is a leaf
        under 1 in the *unchanged* trees of SB and SB2 and 1 sits in
        T_SA: the CO-RJ swap moves the edge 1->3 from T_SB to T_SA.
        """
        before = tables_problem(
            4, {SA: {1}, SB: {3}, SB2: {3}}, outbound={0: 1, 1: 2, 2: 10, 3: 10}
        )
        previous = manual_result(
            before, {SA: ((0, 1),), SB: ((1, 3),), SB2: ((1, 3),)}
        )
        return previous, evolved(before, {SA: {1, 3}, SB: {3}, SB2: {3}})

    def test_victim_swap_clones_the_untouched_victim_tree(self):
        previous, after = self.swap_round()
        victim_tree = previous.forest.trees[SB]
        report = repair_checked_against_replay(
            IncrementalRepairer(use_swap=True), previous, after
        )
        result = report.result
        assert SubscriptionRequest(3, SA) in result.satisfied
        assert (
            SubscriptionRequest(3, SB),
            RejectionReason.VICTIM_SWAPPED,
        ) in result.rejected
        assert set(report.rewritten) == {SA, SB}
        assert result.forest.trees[SB2] is previous.forest.trees[SB2]
        # The previous round still relays SB to 3; the new one re-reserved
        # the slot its source lost.
        assert previous.forest.trees[SB] is victim_tree
        assert victim_tree.parent(3) == 1 and victim_tree.disseminated
        assert 3 not in result.forest.trees[SB]
        assert result.state.m_hat[1] == previous.state.m_hat[1] + 1
        assert report.lost == 1 and not report.feasible

    def test_without_swap_the_rejection_shares_every_tree(self):
        previous, after = self.swap_round()
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, after
        )
        assert report.fresh_rejected == 1
        assert report.rewritten == (SA,)

    def standing_rejections(self):
        """Node 2 takes one stream at most and asked for three."""
        problem = tables_problem(
            4,
            {SA: {1, 2}, SB: {2, 3}, SB2: {2}},
            inbound={0: 10, 1: 10, 2: 1, 3: 10},
        )
        previous = manual_result(
            problem, {SA: ((0, 1), (0, 2)), SB: ((1, 3),), SB2: ()}
        )
        assert [request for request, _ in previous.rejected] == [
            SubscriptionRequest(2, SB),
            SubscriptionRequest(2, SB2),
        ]
        return problem, previous

    def test_failed_retry_keeps_the_tree_shared(self):
        problem, previous = self.standing_rejections()
        report = repair_checked_against_replay(
            IncrementalRepairer(),
            previous,
            ForestProblem.evolve_delta(problem, ProblemDelta()),
        )
        assert report.rewritten == ()
        assert report.fresh_rejected == 2 and report.touched == 2
        assert [request for request, _ in report.result.rejected] == [
            request for request, _ in previous.rejected
        ]

    def test_retry_that_lands_clones_the_shared_tree(self):
        problem, previous = self.standing_rejections()
        old_sb = previous.forest.trees[SB]
        # Node 2 stops watching SA: its inbound slot frees, and the first
        # standing rejection in request order, (2, SB), takes it.
        report = repair_checked_against_replay(
            IncrementalRepairer(),
            previous,
            evolved(problem, {SA: {1}, SB: {2, 3}, SB2: {2}}),
        )
        assert set(report.rewritten) == {SA, SB}
        assert 2 in report.result.forest.trees[SB] and 2 not in old_sb
        assert report.result.forest.trees[SB2] is previous.forest.trees[SB2]
        assert report.fresh_joined == 1 and report.fresh_rejected == 1
        assert [request for request, _ in report.result.rejected] == [
            SubscriptionRequest(2, SB2)
        ]

    def test_large_tree_repair_leaves_the_previous_round(self):
        n = 40
        big, small = StreamId(0, 0), StreamId(1, 0)
        problem = tables_problem(
            n, {big: set(range(1, n - 1)), small: {2, 3}}, 4, 4, bound=50.0
        )
        previous = RandomJoinBuilder().build(problem, RngStream(2))
        old_tree = previous.forest.trees[big]
        old_parents = dict(old_tree.parent_map())
        old_counts = degree_tables(previous.state)
        report = repair_checked_against_replay(
            IncrementalRepairer(),
            previous,
            evolved(problem, {big: set(range(1, n)), small: {2, 3}}),
        )
        new_tree = report.result.forest.trees[big]
        assert n - 1 in new_tree and n - 1 not in old_tree
        assert old_tree.parent_map() == old_parents
        assert degree_tables(previous.state) == old_counts
        assert report.result.state.din[n - 1] == old_counts["din"][n - 1] + 1


class TestUnprovenTablesRevalidate:
    """Same matrix object is not enough: edits since the build count."""

    def chain(self):
        """0 -> 1 -> 2 for SA (2 only reaches the source through 1)."""
        cost = complete_cost(4, off_diagonal=4.0)
        cost[0][1] = cost[1][0] = 1.0
        cost[1][2] = cost[2][1] = 1.0
        cost[1][3] = cost[3][1] = 1.0
        problem = tables_problem(4, {SA: {1, 2}, SB: {3}}, bound=3.0, cost=cost)
        previous = manual_result(problem, {SA: ((0, 1), (1, 2)), SB: ((1, 3),)})
        return problem, previous

    def test_cost_edit_on_the_shared_matrix_unshares_every_tree(self):
        problem, previous = self.chain()
        assert previous.state.built_against(problem)
        problem.set_cost(1, 2, 2.5)  # 0 -> 1 -> 2 now costs 3.5 >= B_cost
        assert not previous.state.built_against(problem)
        report = repair_checked_against_replay(
            IncrementalRepairer(),
            previous,
            ForestProblem.evolve_delta(problem, ProblemDelta()),
        )
        assert set(report.rewritten) == {SA, SB}
        assert report.orphaned == 1 and report.lost == 1
        assert SubscriptionRequest(2, SA) in [r for r, _ in report.result.rejected]

    def test_bound_edit_on_the_built_problem_itself(self):
        problem, previous = self.chain()
        problem.set_inbound_limit(3, 0)  # same object the forest was built on
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, problem
        )
        assert SB in report.rewritten
        assert 3 not in report.result.forest.trees[SB]

    def test_bound_edit_on_the_evolved_problem(self):
        problem, previous = self.chain()
        after = ForestProblem.evolve_delta(problem, ProblemDelta())
        after.set_outbound_limit(1, 0)
        report = repair_checked_against_replay(
            IncrementalRepairer(), previous, after
        )
        assert report.result.forest.trees[SA].parent(2) != 1

    def test_interior_remove_subscription_unshares_every_tree(self):
        problem, previous = self.chain()
        unserve(previous, SubscriptionRequest(1, SA))
        assert 1 in previous.forest.trees[SA]  # still relaying to 2
        report = repair_checked_against_replay(
            IncrementalRepairer(),
            previous,
            ForestProblem.evolve_delta(problem, ProblemDelta()),
        )
        assert set(report.rewritten) == {SA, SB}


# -- random problems, random deltas ------------------------------------------------


@st.composite
def repair_rounds(draw):
    """A built forest and a few rounds of group churn on shared tables."""
    n = draw(st.integers(min_value=3, max_value=7))
    weights = draw(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]),
            min_size=n * n,
            max_size=n * n,
        )
    )
    cost = {
        i: {
            j: 0.0 if i == j else weights[min(i, j) * n + max(i, j)]
            for j in range(n)
        }
        for i in range(n)
    }
    # Low bounds on purpose: rejections, saturated trees and victim
    # swaps have to be common, not corner cases.
    inbound = {i: draw(st.integers(min_value=1, max_value=5)) for i in range(n)}
    outbound = {i: draw(st.integers(min_value=0, max_value=6)) for i in range(n)}
    streams = [
        StreamId(site, index)
        for site in range(n)
        for index in range(draw(st.integers(min_value=0, max_value=3)))
    ] or [StreamId(0, 0)]

    def members(stream):
        others = [i for i in range(n) if i != stream.site]
        return draw(st.frozensets(st.sampled_from(others), max_size=len(others)))

    def groups():
        drawn = {stream: members(stream) for stream in streams}
        return {stream: group for stream, group in drawn.items() if group}

    first = groups()
    if not first:
        first = {streams[0]: frozenset({(streams[0].site + 1) % n})}
    problem = ForestProblem.from_tables(
        cost=cost,
        inbound=inbound,
        outbound=outbound,
        group_members=first,
        latency_bound_ms=draw(st.sampled_from([4.0, 9.0, 20.0])),
    )
    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        # Most groups stay: only a drawn subset of streams is re-rolled.
        rerolled = draw(st.sets(st.sampled_from(streams), max_size=3))
        tighten = draw(
            st.one_of(
                st.none(),
                st.tuples(
                    st.sampled_from(["cost", "inbound", "outbound"]),
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
            )
        )
        rounds.append((rerolled, {s: members(s) for s in rerolled}, tighten))
    return problem, rounds


@settings(max_examples=120, deadline=None)
@given(
    scenario=repair_rounds(),
    seed=st.integers(min_value=0, max_value=2**31),
    co_rj=st.booleans(),
)
def test_delta_repair_equals_replay_on_random_churn(scenario, seed, co_rj):
    problem, rounds = scenario
    builder = CorrelatedRandomJoinBuilder() if co_rj else RandomJoinBuilder()
    previous = builder.build(problem, RngStream(seed))
    repairer = IncrementalRepairer(use_swap=co_rj)
    # One auditor follows the whole chain, so from the second forest on
    # it answers for the shared trees from what it remembers.
    auditor = InvariantAuditor()
    assert_segments_are_the_sorted_edges(auditor, previous)
    for rerolled, drawn, tighten in rounds:
        groups = {g.stream: g.subscribers for g in previous.problem.groups}
        for stream in rerolled:
            if drawn[stream]:
                groups[stream] = drawn[stream]
            else:
                groups.pop(stream, None)
        after = evolved(previous.problem, groups)
        if tighten is not None:
            kind, a, b = tighten
            if kind == "cost" and a != b:
                after.set_cost(a, b, after.edge_cost(a, b) + 3.0)
            elif kind == "inbound":
                after.set_inbound_limit(a, max(0, after.inbound_limit(a) - 1))
            elif kind == "outbound":
                after.set_outbound_limit(a, max(0, after.outbound_limit(a) - 1))
        report = repair_checked_against_replay(repairer, previous, after)
        previous = report.result
        assert_segments_are_the_sorted_edges(auditor, previous)


def assert_segments_are_the_sorted_edges(auditor, result):
    """The auditor's per-tree segments, joined, are ``sorted(forest.edges())``."""
    forest = result.forest
    violations, edges, text = auditor._check_forest_structure(result)
    assert violations == []
    assert edges == sorted(forest.edges())
    assert text == ",".join(f"{s}:{p}>{c}" for s, p, c in sorted(forest.edges()))
    assert (violations, edges, text) == InvariantAuditor()._check_forest_structure(
        result
    )


def test_previous_snapshot_survives_a_chain_of_repairs():
    """Round t's result is still intact after rounds t+1 and t+2 ran."""
    problem = tables_problem(
        5,
        {SA: {1, 2, 3}, SB: {0, 2, 4}, SB2: {3, 4}},
        inbound=2,
        outbound=2,
    )
    repairer = IncrementalRepairer(use_swap=True)
    results = [CorrelatedRandomJoinBuilder().build(problem, RngStream(9))]
    snapshots = [result_snapshot(results[0])]
    for groups in (
        {SA: {1, 2}, SB: {0, 2, 3, 4}, SB2: {3, 4}},
        {SA: {1, 2, 4}, SB2: {0, 3}},
        {SA: {2, 4}, SB: {0, 3}, SB2: {0, 3}},
    ):
        report = repair_checked_against_replay(
            repairer, results[-1], evolved(results[-1].problem, groups)
        )
        results.append(report.result)
        snapshots.append(result_snapshot(report.result))
    assert [result_snapshot(result) for result in results] == snapshots
