"""Tests for the basic node-join algorithm, including the Fig. 6 example."""

from __future__ import annotations

import pytest

from repro.errors import OverlayError
from repro.core.forest import MulticastTree
from repro.core.model import RejectionReason
from repro.core.node_join import JoinOutcome, ParentPolicy, try_join
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.session.streams import StreamId
from tests.conftest import complete_cost, degree_tables, rfc

# Node indices for the Figure 6 instance.
S, A, B, C, D, E, F = range(7)


def figure6() -> tuple[ForestProblem, BuilderState, MulticastTree]:
    """Reconstruct the exact worked example of Fig. 6.

    Per-node labels (O, dout, m-hat): S=(20,7,7), A=(15,5,3),
    B=(12,4,4), C=(10,4,1), D=(22,8,0), E=(8,4,4); cost bound 10.
    Tree-path costs from S: A=4, C=3, B=8, D=11, E=6; edge costs to the
    joining node F: A->F=5 (total 9 < 10), D->F=3 (total 14 >= 10),
    E->F=3 (total 9 but rfc=0), others infeasible.
    """
    cost = complete_cost(7, off_diagonal=9.0)
    stream = StreamId(site=S, index=0)
    problem = ForestProblem.from_tables(
        cost=cost,
        inbound={i: 50 for i in range(7)},
        outbound={S: 20, A: 15, B: 12, C: 10, D: 22, E: 8, F: 10},
        group_members={stream: {A, B, C, D, E, F}},
        latency_bound_ms=10.0,
    )
    # Edge costs consulted by the join: member -> F.
    problem.set_cost(A, F, 5.0)
    problem.set_cost(D, F, 3.0)
    problem.set_cost(E, F, 3.0)

    tree = MulticastTree(stream)
    tree.attach(S, A, 4.0)
    tree.attach(S, C, 3.0)
    tree.attach(C, B, 5.0)  # B at cost 8
    tree.attach(B, D, 3.0)  # D at cost 11
    tree.attach(S, E, 6.0)

    state = BuilderState(problem)
    state.open_group(stream)
    # Install the figure's degree/reservation snapshot directly.
    for node, dout in {S: 7, A: 5, B: 4, C: 4, D: 8, E: 4}.items():
        state.dout[node] = dout
    for node, m_hat in {S: 7, A: 3, B: 4, C: 1, D: 0, E: 4}.items():
        state.m_hat[node] = m_hat
    return problem, state, tree


class TestFigure6Example:
    def test_a_becomes_parent(self):
        """The paper's conclusion: A serves F (rfc 7, cost 4+5=9 < 10)."""
        problem, state, tree = figure6()
        outcome = try_join(problem, state, tree, F)
        assert outcome.accepted
        assert outcome.parent == A
        assert outcome.path_cost_ms == pytest.approx(9.0)

    def test_rfc_values_match_figure(self):
        _, state, _ = figure6()
        assert rfc(state, A) == 7  # 15 - 5 - 3, "second largest rfc"
        assert rfc(state, D) == 14  # 22 - 8 - 0, largest but too far
        assert rfc(state, E) == 0  # 8 - 4 - 4, "no out-degree left"
        assert rfc(state, S) == 6  # loses to A on rfc

    def test_d_excluded_by_latency(self):
        """D has the largest rfc but its path cost 11+3=14 exceeds 10."""
        problem, state, tree = figure6()
        assert tree.cost_from_source(D) + problem.edge_cost(D, F) >= 10.0

    def test_e_excluded_by_rfc(self):
        """E is latency-feasible (6+3=9) but rfc = 0 disqualifies it."""
        problem, state, tree = figure6()
        assert tree.cost_from_source(E) + problem.edge_cost(E, F) < 10.0
        assert rfc(state, E) == 0

    def test_tree_and_state_updated_after_join(self):
        problem, state, tree = figure6()
        try_join(problem, state, tree, F)
        assert tree.parent(F) == A
        assert state.dout[A] == 6
        assert state.din[F] == 1


class TestInboundCheck:
    def test_rejects_when_inbound_saturated(self):
        problem, state, tree = figure6()
        state.din[F] = problem.inbound_limit(F)
        outcome = try_join(problem, state, tree, F)
        assert not outcome.accepted
        assert outcome.reason is RejectionReason.INBOUND_SATURATED

    def test_no_mutation_on_rejection(self):
        problem, state, tree = figure6()
        state.din[F] = problem.inbound_limit(F)
        before = degree_tables(state)
        try_join(problem, state, tree, F)
        assert degree_tables(state) == before
        assert F not in tree


class TestTreeSaturation:
    def test_all_parents_out_of_degree(self):
        problem, state, tree = figure6()
        for node in (S, A, B, C, D, E):
            state.dout[node] = problem.outbound_limit(node)
        outcome = try_join(problem, state, tree, F)
        assert outcome.reason is RejectionReason.TREE_SATURATED

    def test_all_parents_too_far(self):
        problem, state, tree = figure6()
        for node in (S, A, B, C, D, E):
            problem.set_cost(node, F, 99.0)
        outcome = try_join(problem, state, tree, F)
        assert outcome.reason is RejectionReason.TREE_SATURATED


class TestReservation:
    def test_first_dissemination_allowed_despite_negative_rfc(self):
        """The source's reserved slot covers the first join even when
        its rfc is non-positive (the slot was reserved for this)."""
        stream = StreamId(0, 0)
        problem = ForestProblem.from_tables(
            cost=complete_cost(2),
            inbound={0: 5, 1: 5},
            outbound={0: 3, 1: 5},
            group_members={stream: {1}},
            latency_bound_ms=10.0,
        )
        state = BuilderState(problem)
        state.open_group(stream)
        state.m_hat[0] = 3  # rfc(0) = 3 - 0 - 3 = 0
        tree = MulticastTree(stream)
        outcome = try_join(problem, state, tree, 1)
        assert outcome.accepted and outcome.parent == 0
        assert state.m_hat[0] == 2  # reservation spent

    def test_source_with_exhausted_dout_cannot_serve(self):
        stream = StreamId(0, 0)
        problem = ForestProblem.from_tables(
            cost=complete_cost(2),
            inbound={0: 5, 1: 5},
            outbound={0: 2, 1: 5},
            group_members={stream: {1}},
            latency_bound_ms=10.0,
        )
        state = BuilderState(problem)
        state.open_group(stream)
        state.dout[0] = 2
        tree = MulticastTree(stream)
        outcome = try_join(problem, state, tree, 1)
        assert outcome.reason is RejectionReason.TREE_SATURATED


class TestParentPolicies:
    def test_min_cost_prefers_cheapest(self):
        problem, state, tree = figure6()
        problem.set_cost(S, F, 0.5)  # direct from S would be cheapest
        outcome = try_join(
            problem, state, tree, F, policy=ParentPolicy.MIN_COST
        )
        assert outcome.parent == S

    def test_first_fit_takes_first_member(self):
        problem, state, tree = figure6()
        outcome = try_join(
            problem, state, tree, F, policy=ParentPolicy.FIRST_FIT
        )
        assert outcome.parent == S  # source is the first member

    def test_max_rfc_default(self):
        problem, state, tree = figure6()
        outcome = try_join(problem, state, tree, F)
        assert outcome.parent == A


class TestJoinOutcome:
    def test_accepted_requires_parent(self):
        with pytest.raises(OverlayError):
            JoinOutcome(accepted=True)

    def test_rejected_requires_reason(self):
        with pytest.raises(OverlayError):
            JoinOutcome(accepted=False)

    def test_replace_validates_too(self):
        outcome = JoinOutcome(True, 3, 12.5)
        assert outcome == (True, 3, 12.5, None)
        with pytest.raises(OverlayError):
            outcome._replace(parent=None)
        with pytest.raises(OverlayError):
            outcome._replace(accepted=False)

    def test_join_of_member_rejected(self):
        problem, state, tree = figure6()
        with pytest.raises(OverlayError):
            try_join(problem, state, tree, A)
