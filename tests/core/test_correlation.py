"""Tests for criticality and CO-RJ, including the Fig. 7 example."""

from __future__ import annotations

import pytest

from repro.core.correlation import CorrelatedRandomJoinBuilder, criticality
from repro.core.forest import OverlayForest
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.node_join import try_join
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.session.streams import StreamId
from tests.conftest import complete_cost

# Node indices for the Figure 7 instance.
A, B, C, D, E, F, G = range(7)


def figure7() -> tuple[ForestProblem, BuilderState, OverlayForest]:
    """Reconstruct the worked example of Fig. 7.

    E subscribes two streams from site A (s_a^1, s_a^2) and four from
    site G (s_g^6..s_g^9), so Q_{E->A} = 1/2 and Q_{E->G} = 1/4.  E has
    joined G's tree for s_g^8 under parent F; F has also joined the
    tree of s_a^2.  The tree of s_a^2 is saturated for E, but the swap
    applies: remove F->E in T(s_g^8), add F->E in T(s_a^2); the new
    path cost 2+3+4 = 9 is below the bound 10.
    """
    s_a2 = StreamId(A, 2)
    s_a1 = StreamId(A, 1)
    s_g8 = StreamId(G, 8)
    s_g6, s_g7, s_g9 = StreamId(G, 6), StreamId(G, 7), StreamId(G, 9)

    cost = complete_cost(7, off_diagonal=4.0)
    problem = ForestProblem.from_tables(
        cost=cost,
        inbound={i: 50 for i in range(7)},
        outbound={i: 50 for i in range(7)},
        group_members={
            s_a1: {E},
            s_a2: {B, C, F, E},
            s_g8: {F, E},
            s_g6: {E},
            s_g7: {E},
            s_g9: {E},
        },
        latency_bound_ms=10.0,
    )
    # Path pieces of the figure: A->B = 2, B->F = 3, F->E = 4.
    problem.set_cost(A, B, 2.0)
    problem.set_cost(B, A, 2.0)
    problem.set_cost(B, F, 3.0)
    problem.set_cost(F, B, 3.0)
    problem.set_cost(F, E, 4.0)
    problem.set_cost(E, F, 4.0)

    forest = OverlayForest()
    state = BuilderState(problem)
    for stream in (s_a1, s_a2, s_g8, s_g6, s_g7, s_g9):
        state.open_group(stream)

    def attach(stream: StreamId, parent: int, child: int) -> None:
        tree = forest.tree(stream)
        tree.attach(parent, child, problem.edge_cost(parent, child))
        state.record_attach(tree, parent, child)
        forest.satisfied.append(
            SubscriptionRequest(subscriber=child, stream=stream)
        )

    # T(s_a^2): A -> B -> F (and C somewhere; keep it minimal).
    attach(s_a2, A, B)
    attach(s_a2, B, F)
    # T(s_g^8): G -> F -> E  (E is a leaf under F).
    attach(s_g8, G, F)
    attach(s_g8, F, E)
    return problem, state, forest


class TestCriticality:
    def test_eq2_values_of_figure7(self):
        problem, _, _ = figure7()
        assert criticality(problem, E, A) == pytest.approx(1 / 2)
        assert criticality(problem, E, G) == pytest.approx(1 / 4)

    def test_no_requests_is_infinite(self):
        problem, _, _ = figure7()
        assert criticality(problem, B, G) == float("inf")


class TestFigure7Example:
    def request(self) -> SubscriptionRequest:
        return SubscriptionRequest(subscriber=E, stream=StreamId(A, 2))

    def test_swap_applies(self):
        problem, state, forest = figure7()
        builder = CorrelatedRandomJoinBuilder()
        handled = builder.on_rejected(problem, state, forest, self.request())
        assert handled
        # E left the tree of s_g^8 ...
        assert E not in forest.tree(StreamId(G, 8))
        # ... and now receives s_a^2 from F with cost 2+3+4 = 9.
        target = forest.tree(StreamId(A, 2))
        assert target.parent(E) == F
        assert target.cost_from_source(E) == pytest.approx(9.0)

    def test_degrees_unchanged_by_swap(self):
        problem, state, forest = figure7()
        before = (state.dout[F], state.din[E])
        CorrelatedRandomJoinBuilder().on_rejected(
            problem, state, forest, self.request()
        )
        assert (state.dout[F], state.din[E]) == before

    def test_bookkeeping_swaps_requests(self):
        problem, state, forest = figure7()
        CorrelatedRandomJoinBuilder().on_rejected(
            problem, state, forest, self.request()
        )
        assert self.request() in forest.satisfied
        victim = SubscriptionRequest(subscriber=E, stream=StreamId(G, 8))
        assert victim not in forest.satisfied
        assert (victim, RejectionReason.VICTIM_SWAPPED) in forest.rejected

    def test_swap_refused_when_victim_more_critical(self):
        """Condition (1): the victim must be strictly less critical."""
        problem, state, forest = figure7()
        # Request a G stream instead: Q_{E->G}=1/4 is the *smallest*
        # criticality, so no victim qualifies.
        request = SubscriptionRequest(subscriber=E, stream=StreamId(G, 6))
        handled = CorrelatedRandomJoinBuilder().on_rejected(
            problem, state, forest, request
        )
        assert not handled

    def test_swap_refused_when_not_leaf(self):
        """Condition (2): E must be a leaf in the victim tree."""
        problem, state, forest = figure7()
        tree = forest.tree(StreamId(G, 8))
        tree.attach(E, C, problem.edge_cost(E, C))  # E now internal
        state.record_attach(tree, E, C)
        handled = CorrelatedRandomJoinBuilder().on_rejected(
            problem, state, forest, self.request()
        )
        assert not handled

    def test_swap_refused_when_parent_not_in_target(self):
        """Condition (3): F must already be in the target tree."""
        problem, state, forest = figure7()
        # Rebuild the target tree without F.
        forest.trees[StreamId(A, 2)] = type(forest.tree(StreamId(G, 8)))(
            StreamId(A, 2)
        )
        handled = CorrelatedRandomJoinBuilder().on_rejected(
            problem, state, forest, self.request()
        )
        assert not handled

    def test_swap_refused_when_latency_violated(self):
        """Condition (4): the new path must respect the bound."""
        problem, state, forest = figure7()
        problem.set_cost(F, E, 99.0)
        handled = CorrelatedRandomJoinBuilder().on_rejected(
            problem, state, forest, self.request()
        )
        assert not handled

    def test_inbound_rejections_swappable(self):
        problem, state, forest = figure7()
        # E already receives s_g^8, so one inbound slot saturates it.
        problem.set_inbound_limit(E, 1)
        outcome = try_join(problem, state, forest.tree(StreamId(A, 2)), E)
        assert outcome.reason is RejectionReason.INBOUND_SATURATED
        builder = CorrelatedRandomJoinBuilder()
        assert builder.on_rejected(problem, state, forest, self.request())


class TestCoRjEndToEnd:
    def test_never_worse_on_criticality_than_requests(self, small_problem, rng):
        from repro.core.metrics import criticality_loss_ratio
        from repro.core.randomized import RandomJoinBuilder

        rj = RandomJoinBuilder().build(small_problem, rng.spawn("rj"))
        co = CorrelatedRandomJoinBuilder().build(small_problem, rng.spawn("rj"))
        assert criticality_loss_ratio(co) <= criticality_loss_ratio(rj) + 1e-9

    def test_verify_passes(self, small_problem, rng):
        result = CorrelatedRandomJoinBuilder().build(small_problem, rng)
        result.verify()

    def test_repair_passes_zero_is_on_the_fly_only(self, small_problem, rng):
        builder = CorrelatedRandomJoinBuilder(repair_passes=0)
        result = builder.build(small_problem, rng)
        result.verify()
