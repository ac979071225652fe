"""Tests for multicast trees and the overlay forest."""

from __future__ import annotations

import pytest

from repro.errors import OverlayError
from repro.core.forest import MulticastTree, OverlayForest
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.session.streams import StreamId
from tests.conftest import children, in_degree, members, out_degree


def relay_degree(forest: OverlayForest, node: int) -> int:
    """Out-edges of ``node`` carrying streams that originate elsewhere."""
    return sum(
        1
        for stream, parent, _ in forest.edges()
        if parent == node and stream.site != node
    )


def chain_tree() -> MulticastTree:
    """source 0 -> 1 -> 2, plus leaf 3 under the source."""
    tree = MulticastTree(StreamId(0, 0))
    tree.attach(0, 1, 2.0)
    tree.attach(1, 2, 3.0)
    tree.attach(0, 3, 1.0)
    return tree


class TestMulticastTree:
    def test_initial_state(self):
        tree = MulticastTree(StreamId(4, 2))
        assert tree.source == 4
        assert 4 in tree
        assert members(tree) == [4]
        assert not tree.disseminated
        assert tree.cost_from_source(4) == 0.0

    def test_attach_updates_costs(self):
        tree = chain_tree()
        assert tree.cost_from_source(1) == pytest.approx(2.0)
        assert tree.cost_from_source(2) == pytest.approx(5.0)
        assert tree.cost_from_source(3) == pytest.approx(1.0)

    def test_attach_marks_dissemination(self):
        tree = MulticastTree(StreamId(0, 0))
        tree.attach(0, 1, 1.0)
        assert tree.disseminated

    def test_attach_to_nonmember_rejected(self):
        tree = MulticastTree(StreamId(0, 0))
        with pytest.raises(OverlayError):
            tree.attach(7, 1, 1.0)

    def test_attach_existing_member_rejected(self):
        tree = chain_tree()
        with pytest.raises(OverlayError):
            tree.attach(0, 2, 1.0)

    def test_negative_edge_cost_rejected(self):
        tree = MulticastTree(StreamId(0, 0))
        with pytest.raises(OverlayError):
            tree.attach(0, 1, -1.0)

    def test_nan_edge_cost_rejected(self):
        tree = MulticastTree(StreamId(0, 0))
        with pytest.raises(OverlayError, match="nan"):
            tree.attach(0, 1, float("nan"))
        assert members(tree) == [0]
        assert not tree.disseminated

    def test_infinite_edge_cost_accepted(self):
        # The cost matrix holds inf for unreachable pairs; the latency
        # bound, not attach, keeps such an edge out of a build.
        tree = MulticastTree(StreamId(0, 0))
        tree.attach(0, 1, float("inf"))
        assert tree.cost_from_source(1) == float("inf")

    def test_validate_rejects_a_lying_dissemination_flag(self):
        # The parent scan trusts the flag to mean "the source has a
        # child"; validate() is where that premise is checked.
        tree = MulticastTree(StreamId(0, 0))
        tree.disseminated = True
        with pytest.raises(OverlayError, match="disseminated"):
            tree.validate()
        tree = chain_tree()
        tree.disseminated = False
        with pytest.raises(OverlayError, match="disseminated"):
            tree.validate()

    def test_detach_back_to_source_only_clears_the_flag(self):
        tree = MulticastTree(StreamId(0, 0))
        tree.attach(0, 1, 1.0)
        tree.attach(1, 2, 1.0)
        tree.detach_leaf(2)
        assert tree.disseminated
        tree.validate()
        tree.detach_leaf(1)
        assert members(tree) == [0]
        assert not tree.disseminated
        tree.validate()

    def test_parent_children_leaf(self):
        tree = chain_tree()
        assert tree.parent(2) == 1
        assert tree.parent(0) is None
        assert children(tree, 0) == [1, 3]
        assert children(tree, 2) == children(tree, 3) == []
        assert children(tree, 1) == [2]
        assert children(tree, 99) == []

    def test_depth(self):
        tree = chain_tree()
        assert tree.depth(0) == 0
        assert tree.depth(2) == 2
        with pytest.raises(OverlayError):
            tree.depth(42)

    def test_receivers_excludes_source(self):
        assert set(chain_tree().receivers()) == {1, 2, 3}

    def test_edges(self):
        assert set(chain_tree().edges()) == {(0, 1), (1, 2), (0, 3)}

    def test_cost_of_nonmember_raises(self):
        with pytest.raises(OverlayError):
            chain_tree().cost_from_source(9)

    def test_validate_ok(self):
        chain_tree().validate()


class TestDetachLeaf:
    def test_detach_returns_parent(self):
        tree = chain_tree()
        assert tree.detach_leaf(2) == 1
        assert 2 not in tree
        assert children(tree, 1) == []

    def test_detach_source_rejected(self):
        with pytest.raises(OverlayError):
            chain_tree().detach_leaf(0)

    def test_detach_internal_rejected(self):
        with pytest.raises(OverlayError):
            chain_tree().detach_leaf(1)

    def test_detach_nonmember_rejected(self):
        with pytest.raises(OverlayError):
            chain_tree().detach_leaf(9)

    def test_dissemination_recomputed(self):
        tree = MulticastTree(StreamId(0, 0))
        tree.attach(0, 1, 1.0)
        tree.detach_leaf(1)
        assert not tree.disseminated
        assert members(tree) == [0]

    def test_dissemination_kept_with_other_children(self):
        tree = chain_tree()
        tree.detach_leaf(3)
        assert tree.disseminated


class TestOverlayForest:
    def test_tree_created_lazily_once(self):
        forest = OverlayForest()
        a = forest.tree(StreamId(0, 0))
        b = forest.tree(StreamId(0, 0))
        assert a is b
        assert len(forest.trees) == 1

    def test_degrees_across_trees(self):
        forest = OverlayForest()
        t1 = forest.tree(StreamId(0, 0))
        t1.attach(0, 1, 1.0)
        t2 = forest.tree(StreamId(2, 0))
        t2.attach(2, 0, 1.0)
        t2.attach(0, 1, 1.0)
        assert out_degree(forest, 0) == 2
        assert in_degree(forest, 1) == 2
        assert in_degree(forest, 0) == 1

    def test_relay_degree_counts_foreign_streams(self):
        forest = OverlayForest()
        t2 = forest.tree(StreamId(2, 0))
        t2.attach(2, 0, 1.0)
        t2.attach(0, 1, 1.0)  # node 0 relays site 2's stream
        t1 = forest.tree(StreamId(0, 0))
        t1.attach(0, 3, 1.0)  # node 0 sends its own stream
        assert relay_degree(forest, 0) == 1

    def test_str_counts(self):
        forest = OverlayForest()
        forest.satisfied.append(SubscriptionRequest(1, StreamId(0, 0)))
        forest.rejected.append(
            (SubscriptionRequest(2, StreamId(0, 0)),
             RejectionReason.TREE_SATURATED)
        )
        text = str(forest)
        assert "satisfied=1" in text and "rejected=1" in text

    def test_validate_delegates(self):
        forest = OverlayForest()
        forest.tree(StreamId(0, 0)).attach(0, 1, 1.0)
        forest.validate()
