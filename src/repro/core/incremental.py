"""Incremental overlay maintenance (the paper's future-work direction).

The paper solves the *static* construction problem and re-solves it on
any change.  This module provides the repair a deployment runs between
full re-solves, and the measure of what a re-solve would move:

* :func:`churn_rate` — how much of the existing forest a full re-solve
  would move, for deciding *when* a re-solve is worth it;
* :class:`IncrementalRepairer` — the full control-path repairer: given
  the previous round's :class:`~repro.core.base.BuildResult` and the
  next round's :class:`~repro.core.problem.ForestProblem`, it shares
  every tree the round does not touch with the previous forest, prunes
  departed members out of copies of the others (whole subtrees re-home
  via the node-join algorithm), and only the new, orphaned or
  previously rejected requests run through a join — so satisfied users
  are not disturbed by unrelated churn, the previous result is left
  exactly as it was, and the round costs O(groups + churn).

The rebuild policies (``repro.util.validation.REBUILD_POLICIES``)
threaded through ``MembershipServer`` and ``ScenarioRuntime`` pick
between repair and re-solve:

* ``"always"`` — the paper's model: re-solve from scratch every round;
* ``"incremental"`` — repair every round, falling back to a scratch
  rebuild only when the repair is infeasible (a previously-served
  request could not be re-homed: capacity exhaustion or disconnected
  residue).

Incremental joins never move existing edges, so satisfied users are
never disturbed; the price is that the incremental answer can be worse
than a fresh solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from repro.errors import OverlayError
from repro.core.base import BuildResult
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.forest import MulticastTree, OverlayForest
from repro.core.model import MulticastGroup, SubscriptionRequest
from repro.core.node_join import commit_join, plan_join
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.session.streams import StreamId


def churn_rate(before: BuildResult, after: BuildResult) -> float:
    """Fraction of commonly-satisfied requests whose parent moved.

    Compares two builds of (possibly different) problems over the same
    node space — typically the incremental state versus a fresh
    re-solve — and reports how disruptive adopting ``after`` would be.

    Trees the two forests share by identity cannot have moved and are
    only counted; the others are compared parent map against parent
    map.  That reads receivers for satisfied requests, so a forest whose
    receivers are not its satisfied requests (one edited after its
    build) raises :class:`~repro.errors.OverlayError`.
    """
    if not (_receivers_are_satisfied(before) and _receivers_are_satisfied(after)):
        raise OverlayError("a forest's tree receivers are not its satisfied requests")
    old_trees = before.forest.trees
    common = moved = 0
    for stream, tree in after.forest.trees.items():
        old_tree = old_trees.get(stream)
        if old_tree is tree:
            common += len(tree) - 1
        elif old_tree is not None:
            old_parents = old_tree.parent_map()
            for child, parent in tree.parent_map().items():
                old_parent = old_parents.get(child)
                if old_parent is not None:
                    common += 1
                    if old_parent != parent:
                        moved += 1
    return moved / common if common else 0.0


def _receivers_are_satisfied(result: BuildResult) -> bool:
    """True when the satisfied requests are exactly the tree receivers.

    Satisfied requests always sit in their tree, so equal counts mean
    equal sets.
    """
    return len(result.satisfied) == sum(
        len(tree) - 1 for tree in result.forest.trees.values()
    )


@dataclass(frozen=True)
class RepairReport:
    """Outcome of one :meth:`IncrementalRepairer.repair` call.

    ``feasible`` is the fallback signal: it is False when a request that
    was served last round could not be re-homed after its relay departed
    (capacity exhaustion or disconnected residue) — a scratch rebuild
    might still serve that user, so policies treat the repair as failed.
    """

    result: BuildResult
    feasible: bool
    carried: int          #: satisfied requests whose edge survived intact
    orphaned: int         #: previously-satisfied requests whose relay left
    rejoined: int         #: orphans successfully re-homed
    #: Previously-served, still-requested requests that end the repair
    #: unserved — orphans that could not be re-homed *and* carried
    #: requests later evicted by a victim swap.
    lost: int
    fresh_joined: int     #: genuinely new requests joined
    fresh_rejected: int   #: genuinely new requests rejected
    dropped_trees: int    #: trees whose stream left the problem entirely
    #: Re-homed orphans that end the repair under a different parent —
    #: the only previously-served requests a repair can move.
    moved: int
    #: Streams whose tree is not the previous round's object: re-carried,
    #: cloned for a join or a victim swap, newly opened, or dropped.
    #: Every other tree of ``result.forest`` *is* the previous forest's.
    rewritten: tuple[StreamId, ...]

    @property
    def touched(self) -> int:
        """Requests the repair actually had to (re-)join."""
        return self.orphaned + self.fresh_joined + self.fresh_rejected

    @property
    def disruption(self) -> float:
        """:func:`churn_rate` of the repaired result against the previous one.

        The requests served in both rounds are the carried ones plus the
        orphans, less the lost; of those only re-homed orphans can have
        changed parent.
        """
        common = self.carried + self.orphaned - self.lost
        return self.moved / common if common else 0.0


@dataclass
class IncrementalRepairer:
    """Patches a surviving overlay onto the next round's problem.

    A round costs what changed, not what stands.  The repaired forest
    *shares* with the previous one, by reference, every tree the round
    does not write to; the previous :class:`~repro.core.base.BuildResult`
    is never mutated — an emitted result is immutable, later rounds and
    late audits may still read it.  A tree is written to, and therefore
    owned by the new round, when

    * its group changed: the old tree is *re-carried* — walked in attach
      order, every edge whose child is still a requester and whose
      parent chain survived is re-attached to a new tree (so member and
      child order are the old ones minus what left), pruned members drop
      their whole subtree and the still-wanted descendants become
      *orphans*;
    * a join lands in it — a standing rejection of the previous round
      retried with success — or a CO-RJ victim swap evicts from it
      (``use_swap``): the tree is cloned first, attach order kept.

    Orphans, in old attach order with trees visited stream-sorted, then
    the new requests of changed groups together with the previous
    round's standing rejections, in ``(stream, subscriber)`` order,
    re-join through the basic node-join algorithm.  The degree ledger,
    ``m̂`` and the opened set are list copies of the previous state
    bound to the new problem, adjusted only for the trees re-carried or
    dropped, so the result satisfies every invariant the auditor
    re-derives (degree ledger, reservation accounting, request
    accounting).

    Sharing a tree unvalidated is only sound when the previous forest
    was provably built against the new problem's tables (see
    :meth:`_provably_intact`).  Otherwise every tree is re-carried onto
    a fresh ledger and each carried edge re-validated by
    :meth:`_edge_fits`, so tightened capacities or costs degrade edges
    to orphan re-joins instead of yielding a violating forest.
    """

    use_swap: bool = False

    def repair(
        self, previous: BuildResult, problem: ForestProblem
    ) -> RepairReport:
        """Carry the surviving forest into ``problem``; join the rest."""
        prev_forest = previous.forest
        prev_groups = {group.stream: group for group in previous.problem.groups}
        proven = self._provably_intact(previous, problem, prev_groups)
        if proven:
            state = previous.state.carried_to(problem)
            satisfied = list(prev_forest.satisfied)
            prev_satisfied = None  # every tree receiver is a satisfied request
        else:
            state = BuilderState(problem)
            satisfied = []
            prev_satisfied = set(prev_forest.satisfied)
            prev_groups = {}  # nothing is shared: every tree is re-carried

        # Share or re-carry, stream-sorted like a scratch carry would go.
        trees: dict[StreamId, MulticastTree] = {}
        recarried: list[tuple[MulticastGroup, MulticastTree | None]] = []
        old_trees = dict(prev_forest.trees)
        for group in sorted(problem.groups, key=attrgetter("stream")):
            stream = group.stream
            before = prev_groups.get(stream)
            old_tree = old_trees.pop(stream, None)
            if (
                before is not None
                and old_tree is not None
                and (before is group or before.subscribers == group.subscribers)
            ):
                trees[stream] = old_tree
            else:
                trees[stream] = MulticastTree(stream)
                recarried.append((group, old_tree))
        # What is left of ``old_trees`` belongs to groups that are gone.
        dropped_trees = sum(1 for tree in old_trees.values() if len(tree) > 1)
        #: Streams whose tree this round may write to (insertion-ordered).
        owned: dict[StreamId, None] = dict.fromkeys(
            group.stream for group, _ in recarried
        )

        if proven:
            # The ledger and the satisfied list were copied whole, so
            # the trees that do not stay shared are taken out of both;
            # the carry below puts back what survives of them.
            gone: set[SubscriptionRequest] = set()
            for tree in (
                *old_trees.values(),
                *(tree for _group, tree in recarried if tree is not None),
            ):
                state.forget_tree(tree)
                gone.update(
                    SubscriptionRequest(node, tree.stream)
                    for node in tree.receivers()
                )
            if gone:
                satisfied = [
                    request for request in satisfied if request not in gone
                ]

        forest = OverlayForest(trees=trees, satisfied=satisfied)
        orphans: list[tuple[SubscriptionRequest, int]] = []
        fresh: list[SubscriptionRequest] = []
        for group, old_tree in recarried:
            self._carry_tree(
                problem, state, forest, group, old_tree, prev_satisfied,
                orphans, fresh,
            )
        carried = len(satisfied)
        # A standing rejection whose group did not change is retried in
        # place: its tree stays shared unless the retry lands.
        for request, _reason in prev_forest.rejected:
            stream = request.stream
            if stream in trees and stream not in owned:
                fresh.append(request)
        # ``problem.all_requests()`` order: by stream, then subscriber.
        fresh.sort(key=attrgetter("stream", "subscriber"))

        swapper = (
            CorrelatedRandomJoinBuilder(repair_passes=0) if self.use_swap else None
        )
        #: Requests first served this round; everyone else a swap evicts
        #: was served last round too, and is lost.
        newly_served: set[SubscriptionRequest] = set()
        evicted = 0

        def own(stream: StreamId) -> MulticastTree:
            tree = trees[stream]
            if stream not in owned:
                tree = trees[stream] = tree.clone()
                owned[stream] = None
            return tree

        def rejoin(request: SubscriptionRequest) -> bool:
            nonlocal evicted
            stream, subscriber = request.stream, request.subscriber
            outcome = plan_join(problem, state, trees[stream], subscriber)
            if outcome.accepted:
                commit_join(problem, state, own(stream), subscriber, outcome)
                satisfied.append(request)
                return True
            swap = (
                swapper.find_swap(problem, forest, request)
                if swapper is not None
                else None
            )
            if swap is None:
                forest.rejected.append((request, outcome.reason))
                return False
            own(swap.victim.stream)
            own(stream)
            swapper.apply_swap(problem, state, forest, request, swap)
            if swap.victim not in newly_served:
                evicted += 1
            return True

        rejoined = 0
        for request, _old_parent in orphans:
            if rejoin(request):
                rejoined += 1
        fresh_joined = fresh_rejected = 0
        for request in fresh:
            if rejoin(request):
                fresh_joined += 1
                newly_served.add(request)
            else:
                fresh_rejected += 1

        moved = 0
        for request, old_parent in orphans:
            parent = trees[request.stream].parent(request.subscriber)
            if parent is not None and parent != old_parent:
                moved += 1
        # A user served last round whose request still stands must still
        # be served, whether the repair orphaned them (no re-home found)
        # or a victim swap evicted them after the carry.
        lost = len(orphans) - rejoined + evicted
        return RepairReport(
            result=BuildResult(
                problem=problem,
                forest=forest,
                state=state,
                algorithm=previous.algorithm,
            ),
            feasible=lost == 0,
            carried=carried,
            orphaned=len(orphans),
            rejoined=rejoined,
            lost=lost,
            fresh_joined=fresh_joined,
            fresh_rejected=fresh_rejected,
            dropped_trees=dropped_trees,
            moved=moved,
            rewritten=(*owned, *old_trees),
        )

    def _carry_tree(
        self,
        problem: ForestProblem,
        state: BuilderState,
        forest: OverlayForest,
        group: MulticastGroup,
        old_tree: MulticastTree | None,
        prev_satisfied: set[SubscriptionRequest] | None,
        orphans: list[tuple[SubscriptionRequest, int]],
        fresh: list[SubscriptionRequest],
    ) -> None:
        """Re-carry one group's old tree into its new (empty) tree.

        Surviving edges re-attach in old attach order and are appended to
        ``forest.satisfied``; served requests that lost their parent
        chain go to ``orphans`` with the parent they had; the group's
        requests the old tree did not serve go to ``fresh``.
        ``prev_satisfied`` is None when every receiver of ``old_tree`` is
        known to be a satisfied request.
        """
        stream = group.stream
        state.open_group(stream)
        wanted = group.subscribers
        if old_tree is None:
            fresh.extend(group.requests())
            return
        tree = forest.trees[stream]
        served: set[int] = set()
        # Old members iterate source-first in attach order, so every
        # carried node finds its parent already attached; a node whose
        # ancestor was pruned sees its parent missing and orphans.
        for node in old_tree.receivers():
            if node not in wanted:
                continue  # no longer requested: prune (subtree orphans)
            request = SubscriptionRequest(subscriber=node, stream=stream)
            if prev_satisfied is not None and request not in prev_satisfied:
                continue
            served.add(node)
            parent = old_tree.parent(node)
            if parent in tree and self._edge_fits(
                problem, state, tree, parent, node
            ):
                tree.attach(parent, node, problem.edge_cost(parent, node))
                state.record_attach(tree, parent, node)
                forest.satisfied.append(request)
            else:
                orphans.append((request, parent))
        fresh.extend(
            request
            for request in group.requests()
            if request.subscriber not in served
        )

    @staticmethod
    def _provably_intact(
        previous: BuildResult,
        problem: ForestProblem,
        prev_groups: dict[StreamId, MulticastGroup],
    ) -> bool:
        """May the previous forest be carried into ``problem`` unvalidated?

        Yes when it was built against the very tables ``problem`` has
        (:meth:`BuilderState.built_against`) and is exactly the solution
        of its own problem: one opened group and one tree per group of
        ``previous.problem`` (``prev_groups``, keyed by stream), and as
        many requests satisfied or rejected as that problem has — which
        a tree keeping a receiver that is no longer a satisfied request
        breaks.
        All of it holds for anything a builder or this repairer
        returned and nobody edited since; it is checked because sharing
        a tree on a false premise corrupts silently.
        """
        state, forest = previous.state, previous.forest
        opened = state.opened()
        return (
            state.built_against(problem)
            and len(opened) == len(prev_groups)
            and opened.issuperset(prev_groups)
            and forest.trees.keys() == prev_groups.keys()
            and previous.total_requests == previous.problem.total_requests()
        )

    @staticmethod
    def _edge_fits(
        problem: ForestProblem,
        state: BuilderState,
        tree,
        parent: int,
        node: int,
    ) -> bool:
        """Re-validate one carried edge against the *new* problem.

        On the live control path bounds and costs are session constants,
        so a carried subset of a feasible forest always fits and this
        never fires; it guards direct API use against problems with
        tightened capacities or costs, degrading the edge to an orphan
        re-join instead of returning a constraint-violating forest.
        """
        return (
            state.dout[parent] < problem.outbound_limit(parent)
            and state.din[node] < problem.inbound_limit(node)
            and tree.cost_from_source(parent) + problem.edge_cost(parent, node)
            < problem.latency_bound_ms
        )
