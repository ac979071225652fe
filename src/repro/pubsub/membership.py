"""The centralized membership server (Sec. 3.2).

3DTI sessions are small-to-medium sized, so the paper takes the
centralized approach for simplicity: every RP reports its aggregated
subscription, the server assembles the global subscription workload,
solves the overlay construction problem with a pluggable builder, and
dictates the resulting forest to all RPs as an :class:`OverlayDirective`.

The server's ``rebuild_policy`` decides how each round's overlay is
obtained (see :mod:`repro.core.incremental`): ``"always"`` re-solves
from scratch (the paper's model); ``"incremental"`` repairs the previous
round's forest and only re-solves when the repair is infeasible.
Per-round disruption (:func:`~repro.core.incremental.churn_rate`
against the previous round; a repair round reads it, like its
directive's edge delta, off what the repair rewrote) and
repair-vs-rebuild counts are tracked for reporting.

Each round's :class:`~repro.core.problem.ForestProblem` is assembled
the way the policy implies: ``"always"`` — and any round with no
previous problem (the first, or the first after a crash) — re-derives
the dense O(N²) cost/limit tables from the session (*scratch*);
``"incremental"`` instead evolves the previous round's problem by the
dirty-registration delta (*diffed*,
:meth:`~repro.core.problem.ForestProblem.evolve_delta`), carrying the
dense matrix across rounds and patching only the groups that churned.
The two are equivalent (bit-identical build results); per-mode counts
are tracked for reporting.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat

from repro.errors import ProtocolError, SubscriptionError
from repro.core.base import BuildResult, OverlayBuilder
from repro.core.correlation import CorrelatedRandomJoinBuilder
from repro.core.forest import MulticastTree
from repro.core.incremental import IncrementalRepairer, RepairReport, churn_rate
from repro.core.model import MulticastGroup
from repro.core.problem import ForestProblem, ProblemDelta
from repro.pubsub.messages import (
    Advertisement,
    EdgeTable,
    OverlayDirective,
    RejectionTable,
    SiteSubscription,
    StreamIndex,
)
from repro.session.session import TISession
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from repro.util.validation import check_rebuild_policy
from repro.workload.spec import SubscriptionWorkload


def _edge_delta(
    previous: BuildResult, result: BuildResult, rewritten: tuple[StreamId, ...]
) -> tuple[tuple, tuple]:
    """Sorted ``(added, removed)`` edges between two forests.

    Only the ``rewritten`` streams are compared; the trees of all others
    are one object in both forests.
    """
    old_trees, new_trees = previous.forest.trees, result.forest.trees
    added: list = []
    removed: list = []
    for stream in rewritten:
        old, new = old_trees.get(stream), new_trees.get(stream)
        old_edges = set(old.edges()) if old is not None else set()
        new_edges = set(new.edges()) if new is not None else set()
        added.extend((stream, *edge) for edge in new_edges - old_edges)
        removed.extend((stream, *edge) for edge in old_edges - new_edges)
    return tuple(sorted(added)), tuple(sorted(removed))


def _edge_table(trees: dict[StreamId, MulticastTree], index: StreamIndex) -> EdgeTable:
    """``sorted(forest.edges())`` as a table on ``index``, read tree by
    tree in stream order.  A tree's edges are ordered by parent, then
    child, with two sorts of plain ints: by child, then stably by parent.
    """
    ordinal = index.ordinal
    ordinals, parents, children = array("I"), array("I"), array("I")
    for stream in sorted(trees):
        parent = trees[stream].parent_map()
        if parent:
            kids = sorted(parent)
            kids.sort(key=parent.__getitem__)
            ordinals.extend(repeat(ordinal[stream], len(kids)))
            parents.extend(map(parent.__getitem__, kids))
            children.extend(kids)
    return EdgeTable(index.streams, ordinals, parents, children)


def _patched(
    table: EdgeTable, added: tuple, removed: tuple, index: StreamIndex
) -> EdgeTable:
    """The sorted edge table ``table`` on ``index`` with ``removed`` out
    and ``added`` in.

    Every column of a sorted table is sorted within each run of equal
    values in the one before it, so an edge is found by bisecting the
    ordinals, then the parents, then the children.
    """
    ordinal = index.ordinal
    ordinals, parents, children = table.columns()

    def position(edge: tuple) -> tuple[int, int, int]:
        """The ordinal of ``edge``'s stream, where the edge is or would go,
        and the end of its (stream, parent) run."""
        stream, parent, child = edge
        key = ordinal.get(stream, -1)
        lo = bisect_left(ordinals, key)
        hi = bisect_right(ordinals, key, lo)
        lo = bisect_left(parents, parent, lo, hi)
        hi = bisect_right(parents, parent, lo, hi)
        return key, bisect_left(children, child, lo, hi), hi

    for edge in removed:
        _, row, end = position(edge)
        if row == end or children[row] != edge[2]:
            raise ProtocolError(f"edge {edge} to remove was never dictated")
        del ordinals[row], parents[row], children[row]
    for edge in added:
        key, row, _ = position(edge)
        ordinals.insert(row, key)
        parents.insert(row, edge[1])
        children.insert(row, edge[2])
    return EdgeTable(index.streams, ordinals, parents, children)


@dataclass(frozen=True)
class ServerCheckpoint:
    """A durable snapshot of the membership server's soft state.

    Everything a warm restart needs: the registrations (from which all
    derived indices are rebuilt), the epoch counter (so post-restart
    directives outrank what sites already installed), and the last
    forest's edge table.  Snapshots are plain immutable data — what a
    deployment would serialize to disk — taken periodically by the
    event-driven service when ``checkpoint_interval_ms`` is armed.
    """

    epoch: int
    advertised: tuple[tuple[int, tuple[StreamId, ...]], ...]
    subscriptions: tuple[tuple[int, tuple[StreamId, ...]], ...]
    #: Edge table of the last emitted forest (None before any round).
    edges: EdgeTable | None


@dataclass
class MembershipServer:
    """Collects subscriptions, solves the overlay, emits directives."""

    session: TISession
    builder: OverlayBuilder
    latency_bound_ms: float = 120.0
    #: Overlay maintenance policy ("always" | "incremental").
    rebuild_policy: str = "always"
    _advertised: dict[int, tuple[StreamId, ...]] = field(default_factory=dict)
    _subscriptions: dict[int, tuple[StreamId, ...]] = field(default_factory=dict)
    #: Advertiser count per stream — a stream is *available* (its groups
    #: may exist) while the count is positive.
    _available: dict[StreamId, int] = field(default_factory=dict)
    #: Inverted subscription index: stream -> subscribing sites.
    _subscribers_by_stream: dict[StreamId, set[int]] = field(default_factory=dict)
    #: Streams whose effective group may differ from the last assembled
    #: problem's — the only streams dirty-delta derivation looks at.
    _dirty_streams: set[StreamId] = field(default_factory=set)
    #: Stream -> group of the last assembled problem (the diff base).
    _group_index: dict[StreamId, MulticastGroup] = field(default_factory=dict)
    _epoch: int = 0
    _last_problem: ForestProblem | None = None
    _last_result: BuildResult | None = None
    _last_edges: EdgeTable | None = None
    _repairs: int = 0
    _rebuilds: int = 0
    _assemblies_diffed: int = 0
    _assemblies_scratch: int = 0
    _last_assembly: str | None = None
    _last_disruption: float | None = None
    _last_mode: str | None = None
    _registrations_applied: int = 0
    _registrations_skipped: int = 0

    def __post_init__(self) -> None:
        check_rebuild_policy(self.rebuild_policy)
        # Repair joins mirror the configured builder: the CO-RJ victim
        # swap only when the builder itself is correlation-aware —
        # keeping repair and rebuild semantics aligned per algorithm.
        self._repairer = IncrementalRepairer(
            use_swap=isinstance(self.builder, CorrelatedRandomJoinBuilder)
        )
        # Every directive's tables name a stream by its place in the
        # session's sorted stream ids: one tuple, shared by all.
        self._stream_index = StreamIndex.of(
            descriptor.stream_id for descriptor in self.session.registry
        )

    # -- registration ------------------------------------------------------------

    def register_advertisement(self, advertisement: Advertisement) -> bool:
        """Record which streams a site publishes.

        Registration is dirty-tracked: re-registering an identical
        payload is skipped (no re-validation, no state write) and
        returns False, so control planes that re-report every round pay
        only for actual changes.
        """
        self._check_site(advertisement.site)
        if self._advertised.get(advertisement.site) == advertisement.streams:
            self._registrations_skipped += 1
            return False
        for stream in advertisement.streams:
            if stream not in self.session.registry:
                raise ProtocolError(
                    f"site {advertisement.site} advertises unknown stream {stream}"
                )
        before = self._advertised.get(advertisement.site, ())
        self._advertised[advertisement.site] = advertisement.streams
        self._index_advertised(set(before), set(advertisement.streams))
        self._registrations_applied += 1
        return True

    def register_subscription(self, subscription: SiteSubscription) -> bool:
        """Record a site's aggregated subscription (replaces previous).

        Dirty-tracked like :meth:`register_advertisement`: an unchanged
        payload is skipped and returns False.
        """
        self._check_site(subscription.site)
        if self._subscriptions.get(subscription.site) == subscription.streams:
            self._registrations_skipped += 1
            return False
        # Validate the payload up front (the same rules the workload
        # constructor enforces) so the dirty-delta assembly path — which
        # never materializes a workload — admits only well-formed state.
        for stream in subscription.streams:
            if stream.site == subscription.site:
                raise SubscriptionError(
                    f"site {subscription.site} subscribes to its own "
                    f"stream {stream}"
                )
            if not 0 <= stream.site < self.session.n_sites:
                raise SubscriptionError(
                    f"stream {stream} originates outside the session"
                )
        before = self._subscriptions.get(subscription.site, ())
        self._subscriptions[subscription.site] = subscription.streams
        self._index_subscribed(
            subscription.site, set(before), set(subscription.streams)
        )
        self._registrations_applied += 1
        return True

    def withdraw_site(self, site: int) -> None:
        """Forget a site's advertisement and subscription (leave/failure).

        Subsequent rounds build as if the site never reported: its streams
        stop being available (subscriptions to them are dropped by the
        advertisement matching in :meth:`global_workload`) and it requests
        nothing.  Idempotent.
        """
        self._check_site(site)
        advertised = self._advertised.pop(site, None)
        if advertised:
            self._index_advertised(set(advertised), set())
        subscribed = self._subscriptions.pop(site, None)
        if subscribed:
            self._index_subscribed(site, set(subscribed), set())

    def _index_advertised(
        self, before: set[StreamId], after: set[StreamId]
    ) -> None:
        """Track stream availability across an advertisement change."""
        for stream in before - after:
            count = self._available.get(stream, 0) - 1
            if count > 0:
                self._available[stream] = count
            else:
                self._available.pop(stream, None)
            self._dirty_streams.add(stream)
        for stream in after - before:
            self._available[stream] = self._available.get(stream, 0) + 1
            self._dirty_streams.add(stream)

    def _index_subscribed(
        self, site: int, before: set[StreamId], after: set[StreamId]
    ) -> None:
        """Track per-stream subscriber sets across a subscription change."""
        for stream in before - after:
            members = self._subscribers_by_stream.get(stream)
            if members is not None:
                members.discard(site)
                if not members:
                    del self._subscribers_by_stream[stream]
            self._dirty_streams.add(stream)
        for stream in after - before:
            self._subscribers_by_stream.setdefault(stream, set()).add(site)
            self._dirty_streams.add(stream)

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.session.n_sites:
            raise ProtocolError(f"unknown site {site}")

    def registered_sites(self) -> list[int]:
        """Sites with a live advertisement or subscription, sorted.

        These are the sites a directive must be pushed to — the
        event-driven service's install set for each round.
        """
        return sorted(set(self._advertised) | set(self._subscriptions))

    def is_registered(self, site: int) -> bool:
        """True while ``site`` has a live advertisement or subscription.

        The failure detector and the withdraw-dedup path probe this:
        a withdrawal for an unregistered site is redundant, and a
        heartbeat from one marks a zombie needing re-admission.
        """
        return site in self._advertised or site in self._subscriptions

    # -- crash / checkpoint / recovery --------------------------------------------

    def crash(self) -> None:
        """Drop every piece of in-memory soft state (the server died).

        Registrations, derived indices, the epoch counter, the carried
        problem/result/forest — everything a process restart would
        vaporize.  Observability counters survive (they model the
        operator's metrics pipeline, not the server's memory).
        Recovery is the inverse protocol: :meth:`restore` from a
        checkpoint for a warm start, then sites replay their soft state
        and :meth:`ensure_epoch_floor` fast-forwards past whatever
        epochs they still hold.
        """
        self._advertised.clear()
        self._subscriptions.clear()
        self._available.clear()
        self._subscribers_by_stream.clear()
        self._dirty_streams.clear()
        self._group_index.clear()
        self._epoch = 0
        self._last_problem = None
        self._last_result = None
        self._last_edges = None

    def checkpoint(self) -> ServerCheckpoint:
        """Snapshot the soft state a warm restart would reload."""
        return ServerCheckpoint(
            epoch=self._epoch,
            advertised=tuple(sorted(self._advertised.items())),
            subscriptions=tuple(sorted(self._subscriptions.items())),
            edges=self._last_edges,
        )

    def restore(self, snapshot: ServerCheckpoint) -> None:
        """Warm restart: reload a checkpoint into a just-crashed server.

        Registrations and the epoch counter come back; the derived
        availability/subscriber indices are rebuilt from them.  The
        dense problem and builder state are *not* checkpointed (they
        are caches), so the first post-restore round assembles from
        scratch — only post-checkpoint registration deltas then need to
        be re-collected from the sites' refresh replay.
        """
        self.crash()
        self._epoch = snapshot.epoch
        self._last_edges = snapshot.edges
        for site, streams in snapshot.advertised:
            self._advertised[site] = streams
            self._index_advertised(set(), set(streams))
        for site, streams in snapshot.subscriptions:
            self._subscriptions[site] = streams
            self._index_subscribed(site, set(), set(streams))
        # The indices above dirtied every restored stream, but with no
        # carried problem the next assembly is scratch and re-anchors
        # the diff base anyway.
        self._dirty_streams.clear()

    def ensure_epoch_floor(self, epoch: int) -> None:
        """Fast-forward the epoch counter to at least ``epoch``.

        After a cold crash the counter restarts at 0 while sites still
        hold the old incarnation's epochs — without a floor, every
        recovery directive would be discarded as stale.  The service
        calls this with the installed epoch each arriving envelope
        reports; in a crash-free run a site's epoch never exceeds the
        server's, so the call is inert there.
        """
        if epoch > self._epoch:
            self._epoch = epoch

    def soft_state_digest(self) -> str:
        """SHA-256 over the registrations — the reconstruction invariant.

        Two servers with equal digests will assemble identical
        workloads.  The crash/recovery suite pins a recovered server's
        digest equal to a never-crashed reference run's, which is the
        whole point of soft-state reconstruction.
        """
        digest = hashlib.sha256()
        for site, streams in sorted(self._advertised.items()):
            digest.update(f"A{site}:{streams!r};".encode())
        for site, streams in sorted(self._subscriptions.items()):
            digest.update(f"S{site}:{streams!r};".encode())
        return digest.hexdigest()

    # -- overlay construction ------------------------------------------------------

    def global_workload(self) -> SubscriptionWorkload:
        """Assemble the global subscription workload from the reports.

        Subscriptions to streams that were never advertised are dropped
        (the publisher is gone), mirroring broker-side matching of
        interests against advertisements.
        """
        available = self._available
        site_sets = {
            site: tuple(s for s in streams if s in available)
            for site, streams in self._subscriptions.items()
        }
        return SubscriptionWorkload.from_site_sets(self.session.n_sites, site_sets)

    def build_overlay(self, rng: RngStream) -> OverlayDirective:
        """Obtain the round's forest (repair or re-solve) and emit the directive.

        The first round always builds from scratch; afterwards
        ``"incremental"`` repairs the previous forest in place and
        re-solves only when the repair is infeasible, while ``"always"``
        re-solves every round.
        """
        problem = self._assemble_problem()
        previous = self._last_result
        result: BuildResult | None = None
        repair: RepairReport | None = None
        mode = "rebuild"
        if self.rebuild_policy == "incremental" and previous is not None:
            repair = self._repairer.repair(previous, problem)
            if repair.feasible:
                result, mode = repair.result, "repair"
        if result is None:
            result = self.builder.build(problem, rng)
        self._last_mode = mode
        self._last_result = result
        self._epoch += 1
        rejected = RejectionTable.of(result.rejected, self._stream_index)
        if mode == "repair":
            # The repairer left most of the forest in place — the trees
            # it did not rewrite are the previous round's objects and
            # cannot have moved — so disruption and the edge delta come
            # from what it rewrote, and the full set (which rides along
            # for auditing/gap recovery) is the previous one patched.
            self._repairs += 1
            self._last_disruption = repair.disruption
            added, removed = _edge_delta(previous, result, repair.rewritten)
            edges = self._last_edges = _patched(
                self._last_edges, added, removed, self._stream_index
            )
            return OverlayDirective(
                epoch=self._epoch,
                edges=edges,
                rejected=rejected,
                base_epoch=self._epoch - 1,
                added=added,
                removed=removed,
            )
        self._rebuilds += 1
        self._last_disruption = (
            churn_rate(previous, result) if previous is not None else None
        )
        edges = self._last_edges = _edge_table(
            result.forest.trees, self._stream_index
        )
        return OverlayDirective(epoch=self._epoch, edges=edges, rejected=rejected)

    def _assemble_problem(self) -> ForestProblem:
        """Assemble the round's problem: evolve the previous one or start over.

        The paper's ``"always"`` model keeps paying the per-round O(N²)
        scratch assembly it specifies, and so does any round with no
        previous problem (the first, or the first after a crash).  Every
        other round evolves the previous problem by the delta the
        dirty-tracked registration indices yield — O(churned streams);
        the global workload is never materialized.
        """
        previous = self._last_problem
        if self.rebuild_policy == "always" or previous is None:
            problem = self._assemble_scratch()
        else:
            problem = self._assemble_diffed(previous)
        self._last_problem = problem
        return problem

    def _assemble_scratch(self) -> ForestProblem:
        """Re-derive the problem from the session and the global workload."""
        problem = ForestProblem.from_workload(
            self.session, self.global_workload(), self.latency_bound_ms
        )
        self._reset_group_index(problem)
        self._assemblies_scratch += 1
        self._last_assembly = "scratch"
        return problem

    def _assemble_diffed(self, previous: ForestProblem) -> ForestProblem:
        """Evolve ``previous`` by the dirty-registration delta."""
        delta = self._consume_dirty_delta()
        problem = ForestProblem.evolve_delta(previous, delta)
        self._patch_group_index(delta)
        self._assemblies_diffed += 1
        self._last_assembly = "diffed"
        return problem

    def _consume_dirty_delta(self) -> ProblemDelta:
        """Derive the round's group delta from the dirty stream set.

        For each dirty stream the *effective* group (its subscriber set,
        provided the stream is still advertised and requested by anyone)
        is compared against the last assembled problem's group; streams
        that ended up unchanged — withdraw-then-resubscribe races,
        re-registrations of identical payloads routed through different
        tuples — drop out.  Iteration is stream-sorted so the delta's
        category ordering matches the reference
        :meth:`ProblemDelta.between` on workload-scanned group lists.
        """
        added: list[MulticastGroup] = []
        removed: list[MulticastGroup] = []
        changed: list[tuple[MulticastGroup, MulticastGroup]] = []
        index = self._group_index
        for stream in sorted(self._dirty_streams):
            old = index.get(stream)
            members = self._subscribers_by_stream.get(stream)
            live = members if (members and stream in self._available) else None
            if old is None:
                if live:
                    added.append(
                        MulticastGroup(stream=stream, subscribers=frozenset(live))
                    )
            elif live is None:
                removed.append(old)
            elif old.subscribers != live:
                changed.append(
                    (old, MulticastGroup(stream=stream, subscribers=frozenset(live)))
                )
        self._dirty_streams.clear()
        return ProblemDelta(
            added=tuple(added), removed=tuple(removed), changed=tuple(changed)
        )

    def _patch_group_index(self, delta: ProblemDelta) -> None:
        """Advance the diff base by the delta just applied (O(churn))."""
        index = self._group_index
        for group in delta.removed:
            del index[group.stream]
        for _old, group in delta.changed:
            index[group.stream] = group
        for group in delta.added:
            index[group.stream] = group

    def _reset_group_index(self, problem: ForestProblem) -> None:
        """Re-anchor the diff base on a freshly scanned/assembled problem."""
        self._group_index = {group.stream: group for group in problem.groups}
        self._dirty_streams.clear()

    # -- inspection ---------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Number of control rounds completed."""
        return self._epoch

    @property
    def last_result(self) -> BuildResult | None:
        """The most recent build result (None before the first round)."""
        return self._last_result

    @property
    def repairs(self) -> int:
        """Rounds served by incremental repair."""
        return self._repairs

    @property
    def rebuilds(self) -> int:
        """Rounds served by a from-scratch rebuild."""
        return self._rebuilds

    @property
    def last_mode(self) -> str | None:
        """``"repair"`` or ``"rebuild"`` for the latest round (None before)."""
        return self._last_mode

    @property
    def assemblies_diffed(self) -> int:
        """Rounds whose problem was evolved from the previous round's."""
        return self._assemblies_diffed

    @property
    def assemblies_scratch(self) -> int:
        """Rounds whose problem was re-derived from the session."""
        return self._assemblies_scratch

    @property
    def last_assembly(self) -> str | None:
        """``"diffed"`` or ``"scratch"`` for the latest round (None before)."""
        return self._last_assembly

    @property
    def registrations_applied(self) -> int:
        """Registrations that actually changed server state."""
        return self._registrations_applied

    @property
    def registrations_skipped(self) -> int:
        """Re-registrations skipped because the payload was unchanged."""
        return self._registrations_skipped

    @property
    def verifications(self) -> int:
        """Always 0: no policy re-solves a round to check a repair.

        Kept read-only because the benchmark's counter snapshot
        (``benchmarks/e2e/workloads.py::_server_counters``) reports it.
        """
        return 0

    @property
    def last_disruption(self) -> float | None:
        """Fraction of surviving requests whose parent moved last round.

        ``None`` for the first round (nothing to compare against).
        """
        return self._last_disruption
