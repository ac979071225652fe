"""CO-RJ: exploiting semantic stream correlation (Sec. 4.4, Fig. 7).

Streams from one site are highly correlated (the cameras capture the
same scene from different angles), so losing one of four subscribed
streams from site B degrades a scene, while losing the single subscribed
stream from site C loses a scene entirely.  The **criticality** for node
``i`` to lose a stream originating at ``j`` is ``Q_{i->j} = 1/u_{i->j}``
(Eq. 2).

CO-RJ runs RJ, but whenever a request ``r_i(s_j^p)`` is rejected because
the tree is saturated it searches for a *victim*: a stream ``s_k^q``
(``k != j``) such that

1. ``Q_{i->k} < Q_{i->j}`` — the victim is less critical to lose;
2. ``RP_i`` is a **leaf** in the victim's tree ``T_k`` (detaching it
   cannot orphan other nodes);
3. the parent ``h`` of ``RP_i`` in ``T_k`` has already joined the target
   tree ``T_j`` (so ``h`` has the requested stream and can relay it);
4. connecting ``i`` under ``h`` in ``T_j`` respects the latency bound.

When all four hold, the edge ``h -> i`` moves from ``T_k`` to ``T_j``:
``h`` serves ``i`` the more critical stream instead of the less critical
one, with no degree change at either endpoint (``h`` may itself remain
saturated, exactly as node F in Fig. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.forest import OverlayForest
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.node_join import JoinOutcome
from repro.core.problem import ForestProblem
from repro.core.randomized import RandomJoinBuilder
from repro.core.state import BuilderState


def criticality(problem: ForestProblem, subscriber: int, source: int) -> float:
    """Eq. 2: ``Q_{i->j} = 1 / u_{i->j}`` (infinite when nothing is requested).

    A pair with no requests has infinite criticality, which conveniently
    makes it ineligible as a CO-RJ victim (nothing to take away).
    """
    u = problem.u(subscriber, source)
    if u == 0:
        return float("inf")
    return 1.0 / u


@dataclass(frozen=True)
class _Swap:
    """A victim candidate: evict ``victim`` and reuse its edge for the target."""

    victim: SubscriptionRequest
    parent: int


@dataclass
class CorrelatedRandomJoinBuilder(RandomJoinBuilder):
    """CO-RJ: RJ plus the correlation-aware victim swap on saturation.

    The swap also serves inbound-saturated rejections: it replaces one
    received stream with another, so the subscriber's in-degree is
    unchanged and the mechanism applies to both saturation modes.  The
    paper's text names tree saturation only; inbound saturation is the
    other face of the same criticality trade.
    """

    name: str = "co-rj"
    #: Number of post-build repair sweeps: rejected requests are
    #: re-offered the victim swap against the *completed* forest (the
    #: target tree has far more members by then, so condition (3) —
    #: a victim parent that already joined the target tree — holds much
    #: more often).  0 restores the strictly on-the-fly behaviour.
    repair_passes: int = 2

    def on_rejected(
        self,
        problem: ForestProblem,
        state: BuilderState,
        forest: OverlayForest,
        request: SubscriptionRequest,
        outcome: JoinOutcome,
    ) -> bool:
        """Attempt the Sec. 4.4 swap; returns True when the swap happened."""
        swap = self.find_swap(problem, forest, request)
        if swap is None:
            return False
        self.apply_swap(problem, state, forest, request, swap)
        return True

    def build(self, problem: ForestProblem, rng: RngStream):  # type: ignore[override]
        """RJ build, then criticality-ordered swap repair sweeps."""
        result = super().build(problem, rng)
        for _ in range(max(0, self.repair_passes)):
            if not self._repair_sweep(problem, result):
                break
        return result

    def _repair_sweep(self, problem: ForestProblem, result) -> bool:
        """One sweep over rejected requests, most critical first.

        Returns True when at least one swap was applied (so another
        sweep may find newly enabled opportunities).
        """
        forest = result.forest
        state = result.state
        pending = [
            request
            for request, reason in forest.rejected
            if reason is not RejectionReason.VICTIM_SWAPPED
        ]
        pending.sort(
            key=lambda r: (-criticality(problem, r.subscriber, r.source), r)
        )
        progressed = False
        for request in pending:
            if request.subscriber in forest.tree(request.stream):
                continue  # already satisfied by an earlier swap this sweep
            swap = self.find_swap(problem, forest, request)
            if swap is None:
                continue
            self._remove_rejection(forest, request)
            self.apply_swap(problem, state, forest, request, swap)
            progressed = True
        if progressed:
            result.invalidate_caches()
        return progressed

    @staticmethod
    def _remove_rejection(forest: OverlayForest, request: SubscriptionRequest) -> None:
        """Drop ``request``'s rejection record prior to re-satisfying it."""
        for index, (rejected, _reason) in enumerate(forest.rejected):
            if rejected == request:
                del forest.rejected[index]
                return
        raise ValueError(f"{request} is not recorded as rejected")

    def find_swap(
        self,
        problem: ForestProblem,
        forest: OverlayForest,
        request: SubscriptionRequest,
    ) -> _Swap | None:
        """The best victim meeting all 4 conditions, if any (read-only).

        :meth:`apply_swap` then writes to exactly two trees of
        ``forest``: the victim's and the request's.

        Candidates come from the subscriber's sparse ``u`` row crossed
        with the streams-by-source index: only sites the subscriber
        requests have a finite victim criticality, and condition (2)
        needs a tree the subscriber is in.  The winner is the minimum of
        ``(criticality, str(stream))``, a total order, so enumeration
        order does not matter; only the winner becomes a :class:`_Swap`.
        """
        subscriber = request.subscriber
        u_row = problem.u_row(subscriber)
        own_u = u_row.get(request.source, 0)
        own_q = float("inf") if own_u == 0 else 1.0 / own_u
        target_costs = forest.tree(request.stream).path_costs()
        cost_to_subscriber = problem.costs_to(subscriber)
        trees = forest.trees
        by_source = problem.streams_by_source()
        bound = problem.latency_bound_ms
        best = best_stream = best_parent = None
        for site, victim_u in u_row.items():
            if site == request.source:  # condition (1): k != j
                continue
            victim_q = 1.0 / victim_u
            if not victim_q < own_q:  # condition (1): strictly less critical
                continue
            for stream in by_source.get(site, ()):
                tree = trees.get(stream)
                # Condition (2): a leaf's children are [], the default True.
                if tree is None or tree.children_map().get(subscriber, True):
                    continue
                parent = tree.parent_map().get(subscriber)
                cost = target_costs.get(parent)  # condition (3): parent in T_j
                if cost is None or not cost + cost_to_subscriber[parent] < bound:
                    continue  # condition (4); a NaN path never fits
                key = (victim_q, str(stream))
                if best is None or key < best:
                    best, best_stream, best_parent = key, stream, parent
        if best is None:
            return None
        return _Swap(SubscriptionRequest(subscriber, best_stream), best_parent)

    def apply_swap(
        self,
        problem: ForestProblem,
        state: BuilderState,
        forest: OverlayForest,
        request: SubscriptionRequest,
        swap: _Swap,
    ) -> None:
        """Move the edge ``parent -> subscriber`` from the victim tree to T_j."""
        subscriber = request.subscriber
        victim_tree = forest.trees[swap.victim.stream]
        # Detach first so the node's degrees are net-unchanged afterwards.
        victim_tree.detach_leaf(subscriber)
        state.record_detach(victim_tree, swap.parent, subscriber)
        target_tree = forest.tree(request.stream)
        edge_cost = problem.edge_cost(swap.parent, subscriber)
        target_tree.attach(swap.parent, subscriber, edge_cost)
        state.record_attach(target_tree, swap.parent, subscriber)
        forest.satisfied.remove(swap.victim)
        forest.rejected.append((swap.victim, RejectionReason.VICTIM_SWAPPED))
        forest.satisfied.append(request)
