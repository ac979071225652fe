"""The Forest Construction Problem instance (Sec. 4.2).

A :class:`ForestProblem` bundles everything an overlay builder needs:

* the completely-connected RP graph with latency edge costs ``c(e)``;
* per-node in/out degree bounds ``I(v)``, ``O(v)`` in stream units;
* the multicast groups ``G(s)`` derived from the workload;
* the end-to-end latency bound ``B_cost``.

Finding a forest satisfying two or more such constraints is NP-complete
(Wang & Crowcroft, cited in the paper), hence the heuristics in the
sibling modules.

Problems are assembled two ways.  :meth:`ForestProblem.from_workload`
builds everything from scratch — O(N²) for the dense cost/limit tables
— which is the right cost to pay once per session but dominated control
rounds when paid every round.  :meth:`ForestProblem.evolve` instead
carries the previous round's dense cost matrix and limit tables forward
(they are session constants) and patches only what the workload diff
changed: joined/departed sites' groups and edited subscriptions.  The
evolved problem is equivalent to the from-scratch one — same costs,
limits, groups, ``u`` and ``m`` tables — so builders produce
bit-identical forests on it; the equivalence suite pins this per
scenario × seed × algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

from repro.errors import ConfigurationError, SubscriptionError
from repro.core.backend import ArrayBackend
from repro.core.model import MulticastGroup, SubscriptionRequest
from repro.session.session import TISession
from repro.topology.dense import DenseCostMatrix
from repro.session.streams import StreamId
from repro.util.validation import check_positive
from repro.workload.spec import SubscriptionWorkload

#: Shared empty row handed out for subscribers with no requests.
_EMPTY_U_ROW: dict[int, int] = {}


@dataclass(frozen=True)
class ProblemDelta:
    """Group-level difference between two rounds' workloads.

    ``added`` are streams newly requested (their whole group is new),
    ``removed`` the full groups of streams nobody requests any more, and
    ``changed`` pairs ``(old, new)`` groups of streams whose subscriber
    set was edited.  Streams whose group is identical across rounds do
    not appear at all — that is the steady-state bulk the diffed
    assembly never touches.
    """

    added: tuple[MulticastGroup, ...] = ()
    removed: tuple[MulticastGroup, ...] = ()
    changed: tuple[tuple[MulticastGroup, MulticastGroup], ...] = ()

    @property
    def empty(self) -> bool:
        """True when the two workloads produced identical groups."""
        return not (self.added or self.removed or self.changed)

    @classmethod
    def between(
        cls,
        old: Sequence[MulticastGroup],
        new: Sequence[MulticastGroup],
    ) -> "ProblemDelta":
        """Diff two group lists (each keyed by stream)."""
        old_by = {group.stream: group for group in old}
        new_streams = set()
        added: list[MulticastGroup] = []
        changed: list[tuple[MulticastGroup, MulticastGroup]] = []
        for group in new:
            new_streams.add(group.stream)
            before = old_by.get(group.stream)
            if before is None:
                added.append(group)
            elif before.subscribers != group.subscribers:
                changed.append((before, group))
        removed = tuple(
            group for group in old if group.stream not in new_streams
        )
        return cls(added=tuple(added), removed=removed, changed=tuple(changed))


def _check_node(n_nodes: int, node: int) -> None:
    if not isinstance(node, int) or not 0 <= node < n_nodes:
        raise ConfigurationError(
            f"unknown node {node!r} (nodes are 0..{n_nodes - 1})"
        )


def _checked_cost(n_nodes: int, a: int, b: int, value: float) -> float:
    """``value`` if it is a legal ``c(a, b)``: not NaN and ``>= 0``.

    ``inf`` is legal — it marks ``b`` unreachable from ``a``.
    """
    _check_node(n_nodes, a)
    _check_node(n_nodes, b)
    if math.isnan(value) or value < 0:
        raise ConfigurationError(
            f"cost {a}->{b} must be a non-negative number, got {value!r}"
        )
    return value


def _checked_limit(n_nodes: int, node: int, value: int) -> int:
    """``value`` if it is a legal degree bound: an integer ``>= 0``."""
    _check_node(n_nodes, node)
    if not isinstance(value, int) or value < 0:
        raise ConfigurationError(
            f"degree bound at node {node} must be an integer >= 0, got {value!r}"
        )
    return value


class ForestProblem:
    """One overlay-construction instance over RP nodes ``0..n_nodes-1``.

    Each table has exactly one representation: costs live in the
    :class:`DenseCostMatrix`, the degree bounds in two node-indexed
    ``list[int]``.  Reads go through the accessors below; the only
    writes are :meth:`set_cost`, :meth:`set_inbound_limit` and
    :meth:`set_outbound_limit`, which validate like the constructor.

    This constructor is the validating one for explicit tables
    (``cost[a][b]``, ``inbound[v]``, ``outbound[v]`` mappings covering
    every node); :meth:`from_workload` assembles from a trusted session.
    """

    def __init__(
        self,
        n_nodes: int,
        cost: Mapping[int, Mapping[int, float]],
        inbound: Mapping[int, int],
        outbound: Mapping[int, int],
        groups: list[MulticastGroup],
        latency_bound_ms: float,
    ) -> None:
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        rows: list[list[float]] = []
        in_limits: list[int] = []
        out_limits: list[int] = []
        for node in range(n_nodes):
            if node not in inbound or node not in outbound:
                raise ConfigurationError(f"missing degree bounds for node {node}")
            in_limits.append(_checked_limit(n_nodes, node, inbound[node]))
            out_limits.append(_checked_limit(n_nodes, node, outbound[node]))
            row = cost.get(node)
            if row is None:
                raise ConfigurationError(f"missing cost row for node {node}")
            dense_row: list[float] = []
            for other in range(n_nodes):
                if other not in row:
                    raise ConfigurationError(f"missing cost entry {node}->{other}")
                dense_row.append(_checked_cost(n_nodes, node, other, row[other]))
            rows.append(dense_row)
        seen_streams: set[StreamId] = set()
        for group in groups:
            if group.stream in seen_streams:
                raise SubscriptionError(f"duplicate group for stream {group.stream}")
            seen_streams.add(group.stream)
        self._bind(
            DenseCostMatrix(rows), in_limits, out_limits, groups, latency_bound_ms
        )

    def _bind(
        self,
        dense: DenseCostMatrix,
        in_limits: list[int],
        out_limits: list[int],
        groups: list[MulticastGroup],
        latency_bound_ms: float,
    ) -> None:
        """Adopt already-validated tables and derive ``u`` and ``m``."""
        # NaN-safe: a NaN bound would switch the latency constraint off.
        check_positive("latency_bound_ms", latency_bound_ms)
        self.n_nodes = dense.n
        self.latency_bound_ms = latency_bound_ms
        self._dense = dense
        self._in_limits = in_limits
        self._out_limits = out_limits
        self.groups = groups
        for group in groups:
            self._check_group(group)
        self._u: dict[int, dict[int, int]] = self._compute_u()
        self._m_table: list[int] = self._compute_m()
        self._total_requests: int | None = None
        self._streams_by_source: dict[int, tuple[StreamId, ...]] | None = None

    def _check_group(self, group: MulticastGroup) -> None:
        if not 0 <= group.source < self.n_nodes:
            raise SubscriptionError(
                f"group source {group.source} out of range for {group.stream}"
            )
        for member in group.subscribers:
            if not 0 <= member < self.n_nodes:
                raise SubscriptionError(
                    f"group member {member} out of range for {group.stream}"
                )

    # -- derived data ------------------------------------------------------------

    def _compute_u(self) -> dict[int, dict[int, int]]:
        u: dict[int, dict[int, int]] = {}
        for group in self.groups:
            for member in group.subscribers:
                row = u.setdefault(member, {})
                row[group.source] = row.get(group.source, 0) + 1
        return u

    def _compute_m(self) -> list[int]:
        m = [0] * self.n_nodes
        for group in self.groups:
            m[group.source] += 1
        return m

    @property
    def n_groups(self) -> int:
        """The paper's ``F`` — number of trees the forest must contain."""
        return len(self.groups)

    def u(self, subscriber: int, source: int) -> int:
        """``u_{i->j}``: streams of ``source`` requested by ``subscriber``."""
        return self._u.get(subscriber, _EMPTY_U_ROW).get(source, 0)

    def u_row(self, subscriber: int) -> Mapping[int, int]:
        """``subscriber``'s sparse ``u`` row, fetched once (read-only).

        The CO-RJ victim scan probes ``u_{i->k}`` for every constructed
        tree; handing out the row saves one dict hop per probe.
        """
        return self._u.get(subscriber, _EMPTY_U_ROW)

    def u_matrix(self) -> dict[int, dict[int, int]]:
        """A copy of the full (sparse) ``u`` matrix."""
        return {i: dict(row) for i, row in self._u.items()}

    def total_requests(self) -> int:
        """Total number of subscription requests across all groups.

        Groups are immutable after construction, so the sum is taken
        once (:meth:`evolve_delta` patches the ancestor's instead).
        """
        total = self._total_requests
        if total is None:
            total = self._total_requests = sum(
                group.size for group in self.groups
            )
        return total

    def all_requests(self) -> list[SubscriptionRequest]:
        """Every request, grouped by stream, in deterministic order (a
        fresh list: builders shuffle it in place)."""
        out: list[SubscriptionRequest] = []
        for group in sorted(self.groups, key=attrgetter("stream")):
            out.extend(group.requests())
        return out

    def streams_by_source(self) -> dict[int, tuple[StreamId, ...]]:
        """Streams grouped by publishing site (cached, read-only).

        The CO-RJ victim scan enumerates candidate trees per *site* of
        the subscriber's ``u`` row; this index turns that from a probe
        over every constructed tree into a probe over the handful of
        streams those sites publish.
        """
        by = self._streams_by_source
        if by is None:
            acc: dict[int, list[StreamId]] = {}
            for group in self.groups:
                acc.setdefault(group.source, []).append(group.stream)
            by = self._streams_by_source = {
                source: tuple(streams) for source, streams in acc.items()
            }
        return by

    def edge_cost(self, a: int, b: int) -> float:
        """Latency cost ``c(a, b)`` between two RP nodes."""
        return self._dense.edge_cost(a, b)

    def costs_to(self, node: int) -> list[float]:
        """Costs *to* ``node`` from every node (dense column, read-only).

        This is the parent-search access pattern: one bulk fetch, then
        O(1) probes per candidate instead of two dict hops each.
        """
        return self._dense.column(node)

    def dense_cost_matrix(self) -> DenseCostMatrix:
        """The shared dense cost matrix (read-only)."""
        return self._dense

    @property
    def array_backend(self) -> ArrayBackend:
        """The array backend bound to this problem's dense cost matrix."""
        return self._dense.array_backend

    def inbound_limit(self, node: int) -> int:
        """``I(node)`` in stream units."""
        return self._in_limits[node]

    def outbound_limit(self, node: int) -> int:
        """``O(node)`` in stream units."""
        return self._out_limits[node]

    def inbound_limits(self) -> list[int]:
        """``I`` for every node, indexable by node id (shared, read-only)."""
        return self._in_limits

    def outbound_limits(self) -> list[int]:
        """``O`` for every node, indexable by node id (shared, read-only).

        This is the parent-search access pattern: one bulk fetch, then
        O(1) probes per candidate instead of a dict hop each.
        """
        return self._out_limits

    # -- mutators ----------------------------------------------------------------

    def set_cost(self, a: int, b: int, value: float) -> None:
        """Set ``c(a, b)`` (one direction; symmetric edits take two calls).

        The matrix is shared with every problem evolved from the same
        ancestor — costs are session constants — so the edit is visible
        to all of them, and to row/column lists already handed out.
        """
        self._dense.set_cost(a, b, _checked_cost(self.n_nodes, a, b, value))

    def set_inbound_limit(self, node: int, value: int) -> None:
        """Set ``I(node)``; this problem's own list, no other round's."""
        self._in_limits[node] = _checked_limit(self.n_nodes, node, value)

    def set_outbound_limit(self, node: int, value: int) -> None:
        """Set ``O(node)``; this problem's own list, no other round's."""
        self._out_limits[node] = _checked_limit(self.n_nodes, node, value)

    def streams_to_send(self, node: int) -> int:
        """The paper's ``m_i``: streams of ``node`` wanted by >= 1 other RP.

        Served from a per-node table computed once at construction (and
        patched by :meth:`evolve`) instead of rescanning every group.
        """
        if not 0 <= node < self.n_nodes:
            return 0
        return self._m_table[node]

    def m_table(self) -> list[int]:
        """``m_i`` for every node, indexable by node id (shared, read-only)."""
        return self._m_table

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_workload(
        cls,
        session: TISession,
        workload: SubscriptionWorkload,
        latency_bound_ms: float,
    ) -> "ForestProblem":
        """Assemble a problem instance from a session and one workload sample.

        The session's cost matrix is topology-derived (validated dense,
        non-negative by construction) and its bounds come from the
        capacity model, so this path skips the O(N²) entry-by-entry
        re-validation of the table constructor.
        """
        if workload.n_sites != session.n_sites:
            raise SubscriptionError(
                f"workload covers {workload.n_sites} sites but session has "
                f"{session.n_sites}"
            )
        for site, streams in workload.subscriptions.items():
            for stream in streams:
                if stream not in session.registry:
                    raise SubscriptionError(
                        f"site {site} subscribes to unpublished stream {stream}"
                    )
        groups = [
            MulticastGroup(stream=stream, subscribers=members)
            for stream, members in sorted(workload.groups().items())
        ]
        problem = cls.__new__(cls)
        problem._bind(
            # Own copy of the session rows: a problem's costs may be
            # edited (tests, what-if probes) without touching the session.
            DenseCostMatrix(
                [list(row) for row in session.dense_cost_matrix().rows()]
            ),
            [site.rp.inbound_limit for site in session.sites],
            [site.rp.outbound_limit for site in session.sites],
            groups,
            latency_bound_ms,
        )
        return problem

    @classmethod
    def from_tables(
        cls,
        cost: Mapping[int, Mapping[int, float]],
        inbound: Mapping[int, int],
        outbound: Mapping[int, int],
        group_members: Mapping[StreamId, frozenset[int] | set[int]],
        latency_bound_ms: float,
    ) -> "ForestProblem":
        """Assemble a problem directly from explicit tables (tests, examples)."""
        groups = [
            MulticastGroup(stream=stream, subscribers=frozenset(members))
            for stream, members in sorted(group_members.items())
        ]
        return cls(
            n_nodes=len(inbound),
            cost=cost,
            inbound=inbound,
            outbound=outbound,
            groups=groups,
            latency_bound_ms=latency_bound_ms,
        )

    @classmethod
    def evolve(
        cls,
        prev: "ForestProblem",
        workload: SubscriptionWorkload,
    ) -> "ForestProblem":
        """Diffed assembly: patch ``prev`` into the next round's problem.

        Costs and degree bounds are per-session constants, so the new
        problem *shares* the previous one's dense cost matrix (including
        its lazily-built transpose) and copies the two N-entry bound
        lists — none of the O(N²) work of :meth:`from_workload` is
        repeated.  Only the multicast groups are rebuilt from
        ``workload`` (unchanged groups reuse the previous objects), and
        the derived ``u`` and ``m`` tables are patched copy-on-write for
        exactly the groups the diff touches.

        The result is equivalent to a from-scratch assembly of the same
        workload: equal costs, limits, groups, ``u`` and ``m``, hence
        bit-identical build results under the same RNG.  The cost matrix
        is shared (:meth:`set_cost` is visible across every problem
        evolved from the same ancestor — the control plane treats costs
        as read-only); the bound lists are per-round copies, so
        :meth:`set_inbound_limit` on the evolved problem never reaches
        the previous round's.

        Unlike :meth:`from_workload`, ``evolve`` has no session to
        check subscriptions against, so streams are **caller-trusted**:
        only node-id ranges are validated.  The membership server
        satisfies this by construction (``global_workload`` drops
        subscriptions whose publisher never advertised, and
        advertisements are validated against the registry on arrival);
        direct callers feeding unfiltered workloads should assemble
        from scratch to keep the unpublished-stream check.
        """
        if workload.n_sites != prev.n_nodes:
            raise SubscriptionError(
                f"workload covers {workload.n_sites} sites but the previous "
                f"problem has {prev.n_nodes}"
            )
        # Unchanged streams reuse the previous MulticastGroup (identity
        # reuse, no re-validation); ProblemDelta.between is the single
        # diff implementation — its extra O(groups) pass is negligible
        # next to the O(N²) this path avoids.
        old_by = {group.stream: group for group in prev.groups}
        groups: list[MulticastGroup] = []
        for stream, members in sorted(workload.groups().items()):
            old = old_by.get(stream)
            if old is not None and old.subscribers == members:
                groups.append(old)
            else:
                groups.append(MulticastGroup(stream=stream, subscribers=members))
        return cls.evolve_delta(prev, ProblemDelta.between(prev.groups, groups))

    @classmethod
    def evolve_delta(
        cls,
        prev: "ForestProblem",
        delta: ProblemDelta,
    ) -> "ForestProblem":
        """Diffed assembly from a caller-supplied group delta.

        The O(churn) counterpart of :meth:`evolve`: instead of walking a
        freshly-assembled workload to discover what changed, the caller
        hands over the :class:`ProblemDelta` directly (the membership
        server derives it from its dirty-tracked registrations).  The
        group list is merged from ``prev.groups`` and the delta with
        pointer work only — an empty delta shares every derived table
        with ``prev`` untouched.

        The delta is **caller-trusted** to be consistent with ``prev``:
        ``added`` streams must not already have a group, ``removed`` /
        ``changed`` old groups must be the previous round's objects for
        their streams.  Only node-id ranges of the incoming groups are
        validated (exactly what :meth:`evolve` validates).
        """
        problem = cls.__new__(cls)
        problem.n_nodes = prev.n_nodes
        problem.latency_bound_ms = prev.latency_bound_ms
        problem._dense = prev._dense
        # Own copies of the bounds, so a round-t edit can never leak
        # into round t-1's retained problem.
        problem._in_limits = list(prev._in_limits)
        problem._out_limits = list(prev._out_limits)
        problem._streams_by_source = None
        problem._total_requests = prev.total_requests() + (
            sum(group.size for group in delta.added)
            - sum(group.size for group in delta.removed)
            + sum(new.size - old.size for old, new in delta.changed)
        )
        if delta.empty:
            problem.groups = list(prev.groups)
            problem._u = prev._u
            problem._m_table = prev._m_table
            return problem
        for group in delta.added:
            problem._check_group(group)
        for _old, group in delta.changed:
            problem._check_group(group)
        removed_streams = {group.stream for group in delta.removed}
        changed_by = {old.stream: new for old, new in delta.changed}
        groups = [
            changed_by.get(group.stream, group)
            for group in prev.groups
            if group.stream not in removed_streams
        ]
        if delta.added:
            # Both halves are stream-sorted, so this is a near-sorted
            # merge — Timsort handles it in O(groups).
            groups.extend(delta.added)
            groups.sort(key=attrgetter("stream"))
        problem.groups = groups
        problem._u = cls._patch_u(prev._u, delta)
        m_table = list(prev._m_table)
        for group in delta.removed:
            m_table[group.source] -= 1
        for group in delta.added:
            m_table[group.source] += 1
        problem._m_table = m_table
        return problem

    @staticmethod
    def _patch_u(
        prev_u: dict[int, dict[int, int]], delta: ProblemDelta
    ) -> dict[int, dict[int, int]]:
        """Apply a group delta to the sparse ``u`` matrix, copy-on-write.

        Untouched rows are shared with the previous problem; touched
        rows are copied before editing and zero entries are dropped, so
        the patched matrix equals a from-scratch :meth:`_compute_u`.
        """
        u = dict(prev_u)
        touched: set[int] = set()

        def row_of(member: int) -> dict[int, int]:
            if member not in touched:
                u[member] = dict(u.get(member, _EMPTY_U_ROW))
                touched.add(member)
            return u[member]

        for group in delta.removed:
            source = group.source
            for member in group.subscribers:
                row_of(member)[source] -= 1
        for old, new in delta.changed:
            source = old.source
            for member in old.subscribers - new.subscribers:
                row_of(member)[source] -= 1
            for member in new.subscribers - old.subscribers:
                row = row_of(member)
                row[source] = row.get(source, 0) + 1
        for group in delta.added:
            source = group.source
            for member in group.subscribers:
                row = row_of(member)
                row[source] = row.get(source, 0) + 1
        for member in touched:
            row = u[member]
            for source in [s for s, count in row.items() if count == 0]:
                del row[source]
            if not row:
                del u[member]
        return u

    def __str__(self) -> str:
        return (
            f"ForestProblem(nodes={self.n_nodes}, groups={self.n_groups}, "
            f"requests={self.total_requests()}, Bcost={self.latency_bound_ms}ms)"
        )
