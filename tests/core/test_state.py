"""Tests for the builder state: degrees and reservations."""

from __future__ import annotations

import pytest

from repro.errors import OverlayError
from repro.core.forest import MulticastTree
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.session.streams import StreamId
from tests.conftest import complete_cost, rfc


def three_node_problem() -> ForestProblem:
    return ForestProblem.from_tables(
        cost=complete_cost(3),
        inbound={0: 3, 1: 3, 2: 3},
        outbound={0: 3, 1: 3, 2: 3},
        group_members={
            StreamId(0, 0): {1, 2},
            StreamId(0, 1): {2},
            StreamId(1, 0): {0},
        },
        latency_bound_ms=10.0,
    )


class TestInitialState:
    def test_m_is_static_per_paper(self):
        state = BuilderState(three_node_problem())
        assert list(state.m) == [2, 1, 0]

    def test_m_hat_starts_zero_until_opened(self):
        state = BuilderState(three_node_problem())
        assert list(state.m_hat) == [0, 0, 0]

    def test_open_group_reserves(self):
        state = BuilderState(three_node_problem())
        state.open_group(StreamId(0, 0))
        assert state.m_hat[0] == 1
        state.open_group(StreamId(0, 1))
        assert state.m_hat[0] == 2

    def test_open_idempotent(self):
        state = BuilderState(three_node_problem())
        state.open_group(StreamId(0, 0))
        state.open_group(StreamId(0, 0))
        assert state.m_hat[0] == 1

    def test_reservations_disabled(self):
        state = BuilderState(three_node_problem(), reservations=False)
        state.open_group(StreamId(0, 0))
        assert state.m_hat[0] == 0
        assert StreamId(0, 0) in state.opened()


class TestRfc:
    def test_rfc_formula(self):
        state = BuilderState(three_node_problem())
        state.open_group(StreamId(0, 0))
        state.open_group(StreamId(0, 1))
        state.dout[0] = 1
        # rfc = O - dout - m_hat = 3 - 1 - 2
        assert rfc(state, 0) == 0

    def test_inbound_outbound_free(self):
        state = BuilderState(three_node_problem())
        assert state.inbound_free(1)
        state.din[1] = 3
        assert not state.inbound_free(1)
        assert state.outbound_free(0)
        state.dout[0] = 3
        assert not state.outbound_free(0)


class TestRecordAttachDetach:
    def test_first_dissemination_releases_reservation(self):
        problem = three_node_problem()
        state = BuilderState(problem)
        stream = StreamId(0, 0)
        state.open_group(stream)
        tree = MulticastTree(stream)
        tree.attach(0, 1, 1.0)
        state.record_attach(tree, 0, 1)
        assert state.m_hat[0] == 0
        assert state.dout[0] == 1
        assert state.din[1] == 1

    def test_second_child_keeps_m_hat(self):
        problem = three_node_problem()
        state = BuilderState(problem)
        stream = StreamId(0, 0)
        state.open_group(stream)
        tree = MulticastTree(stream)
        tree.attach(0, 1, 1.0)
        state.record_attach(tree, 0, 1)
        tree.attach(0, 2, 1.0)
        state.record_attach(tree, 0, 2)
        assert state.m_hat[0] == 0
        assert state.dout[0] == 2

    def test_detach_restores_reservation(self):
        problem = three_node_problem()
        state = BuilderState(problem)
        stream = StreamId(0, 0)
        state.open_group(stream)
        tree = MulticastTree(stream)
        tree.attach(0, 1, 1.0)
        state.record_attach(tree, 0, 1)
        tree.detach_leaf(1)
        state.record_detach(tree, 0, 1)
        assert state.m_hat[0] == 1
        assert state.dout[0] == 0
        assert state.din[1] == 0

    def test_detach_with_remaining_children_keeps_release(self):
        problem = three_node_problem()
        state = BuilderState(problem)
        stream = StreamId(0, 0)
        state.open_group(stream)
        tree = MulticastTree(stream)
        tree.attach(0, 1, 1.0)
        state.record_attach(tree, 0, 1)
        tree.attach(0, 2, 1.0)
        state.record_attach(tree, 0, 2)
        tree.detach_leaf(2)
        state.record_detach(tree, 0, 2)
        assert state.m_hat[0] == 0  # stream still disseminated via node 1

    def test_degree_underflow_guard(self):
        problem = three_node_problem()
        state = BuilderState(problem)
        stream = StreamId(0, 0)
        tree = MulticastTree(stream)
        with pytest.raises(OverlayError):
            state.record_detach(tree, 0, 1)


class TestForgetTree:
    def _built(self):
        state = BuilderState(three_node_problem())
        stream = StreamId(0, 0)
        state.open_group(stream)
        tree = MulticastTree(stream)
        for parent, child in ((0, 1), (1, 2)):
            tree.attach(parent, child, 1.0)
            state.record_attach(tree, parent, child)
        return state, tree

    def test_forget_undoes_the_tree(self):
        state, tree = self._built()
        state.forget_tree(tree)
        assert state.din == state.dout == state.m_hat == [0, 0, 0]
        assert tree.stream not in state.opened()
        state.check_invariants()

    def test_forgetting_twice_raises(self):
        state, tree = self._built()
        state.forget_tree(tree)
        with pytest.raises(OverlayError, match="underflow"):
            state.forget_tree(tree)

    def test_reservation_underflow_raises(self):
        state = BuilderState(three_node_problem())
        tree = MulticastTree(StreamId(0, 0))
        state.open_group(tree.stream)
        state.m_hat[0] = 0  # a ledger that lost the reservation
        with pytest.raises(OverlayError, match="reservation underflow"):
            state.forget_tree(tree)


class TestInvariants:
    def test_check_invariants_passes_fresh(self):
        BuilderState(three_node_problem()).check_invariants()

    def test_inbound_violation_detected(self):
        state = BuilderState(three_node_problem())
        state.din[1] = 99
        with pytest.raises(OverlayError):
            state.check_invariants()

    def test_outbound_violation_detected(self):
        state = BuilderState(three_node_problem())
        state.dout[1] = 99
        with pytest.raises(OverlayError):
            state.check_invariants()

    @pytest.mark.parametrize("table", ["din", "dout"])
    def test_negative_degree_detected(self, table):
        state = BuilderState(three_node_problem())
        getattr(state, table)[2] = -1
        with pytest.raises(OverlayError, match="negative degree"):
            state.check_invariants()
