"""Runtime invariant auditing for the control plane.

The overlay machinery (ViewCast subscription, node join, multicast
forest growth under per-RP capacity ``m̂`` and latency bound ``B_cost``)
is exactly the kind of code whose bugs only surface under adversarial
sequences of joins, leaves, FOV changes and failures.  The
:class:`InvariantAuditor` hooks a running control plane and, after every
control-plane event, re-derives the structural invariants from first
principles:

* **acyclicity** — every tree member reaches its source by walking
  parent links, without revisiting a node;
* **parent/child symmetry** — the parent map and the children lists of
  each tree describe the same edge set;
* **degree bounds** — per-RP in/out degree across the forest never
  exceeds ``I(v)`` / ``O(v)``, the builder's degree ledger matches a
  recount from the forest edges, and the reservation counter ``m̂``
  equals, per node, the number of *opened* groups it sources whose
  streams have not yet been disseminated (Sec. 4.3.1's accounting);
* **path costs** — every member's cached source-to-node cost is its
  parent's plus ``c(parent, member)``, the sum the tree's ``attach``
  makes;
* **latency bound** — every satisfied subscriber's tree path costs less
  than ``B_cost``;
* **pub-sub ↔ forest consistency** — the directive repeats the forest
  edge-for-edge, every RP's forwarding table and receiving set match the
  directive (no dictated entry missing, no undictated one left), streams
  are delivered only to sites that requested them, and every satisfied
  request is actually receivable at its subscriber.

Every audited event appends a canonical line (event label, forest
fingerprint, violation count) to an internal log; the SHA-256 over that
log is the :attr:`AuditReport.digest`, so two runs of the same scenario
and seed can be compared bit-for-bit.

**Cost.**  Every invariant is decided from the audited round's own data,
every round; what is avoided is deciding it wastefully.  The forest is
walked once, in ``(site, index)`` stream order: each tree yields its
``(parent, child)``-sorted edge segment, and the segments joined *are*
``sorted(forest.edges())`` — one list that feeds the degree recount, the
directive comparison and the fingerprint.  Each check first tries a
cheap route that *proves* "no violation" (list equality of sorted edges,
the six per-node degree conditions at once, ``cost < bound`` read from
the tree's cost map); only when the proof fails does the naming code run
and build its sets, so the reported violations are the same either way.
Examining a tree (the soundness proof, the sort, the fingerprint text)
is the one part that is remembered: per stream the auditor keeps what
the examination produced *together with its own copies of the tree's
parent and children maps*, and reuses it only while the live tree's maps
still compare equal to those copies.  The path-cost check is remembered
the same way, against a copy of the tree's cost map and the cost matrix
(and its ``edits`` count) it was checked under; a new or edited matrix,
as scratch assembly brings every round, re-checks the costs alone.
Nothing is taken on trust — not tree identity, not the repairer's report
of what it rewrote, not which result was audited before — so a tree
mutated behind the auditor's back is re-examined like any other,
results may be audited in any order, and a fresh ``InvariantAuditor()``
is the memo-free audit.  The memo holds records only for sound trees of
the forest audited last: at most one forest's maps.  What stays O(edges)
a round is honest work: comparing every tree's maps, the degree
recount, and rebuilding each site's dictated forwarding/receiving view
from the directive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import eq
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.base import BuildResult
from repro.core.forest import MulticastTree, OverlayForest
from repro.errors import SimulationError
from repro.session.streams import StreamId
from repro.topology.dense import DenseCostMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pubsub.messages import Edge, OverlayDirective
    from repro.pubsub.rp import RPAgent


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed during an audit."""

    invariant: str
    detail: str
    event: str = ""
    time_ms: float = 0.0

    def render(self) -> str:
        """One human-readable line."""
        stamp = f"t={self.time_ms:.1f}ms " if self.time_ms else ""
        where = f" [{self.event}]" if self.event else ""
        return f"{stamp}{self.invariant}: {self.detail}{where}"


@dataclass
class AuditReport:
    """Aggregate outcome of one audited run."""

    events_audited: int
    checks_run: int
    violations: list[Violation]
    digest: str

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def summary(self) -> str:
        """Multi-line report suitable for CLI output."""
        lines = [
            f"audit: {self.events_audited} events, {self.checks_run} checks, "
            f"{len(self.violations)} violations",
            f"digest: {self.digest}",
        ]
        for violation in self.violations[:20]:
            lines.append(f"  VIOLATION {violation.render()}")
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


@dataclass
class _TreeRecord:
    """What examining one sound tree produced, and the content it came from.

    ``source`` / ``parent`` / ``children`` are the auditor's own copies of
    what it read; ``edges`` is the tree's ``(stream, parent, child)``
    segment of ``sorted(forest.edges())`` and ``text`` that segment's
    share of the fingerprint.  ``costs`` / ``matrix`` / ``edits`` are the
    copy of the tree's cost map last found consistent, the cost matrix it
    was checked against and that matrix's edit count then.
    """

    source: int
    parent: dict[int, int]
    children: dict[int, list[int]]
    edges: list[Edge]
    text: str
    costs: dict[int, float] | None = None
    matrix: DenseCostMatrix | None = None
    edits: int = -1

    @classmethod
    def of(cls, stream: StreamId, tree: MulticastTree) -> "_TreeRecord":
        """Sort and print one tree's edges; copy the maps they came from."""
        parent = tree.parent_map()
        pairs = sorted(zip(parent.values(), parent))
        name = str(stream)
        return cls(
            source=tree.source,
            parent=dict(parent),
            children={
                node: list(kids) for node, kids in tree.children_map().items()
            },
            edges=[(stream, node, child) for node, child in pairs],
            text=",".join(f"{name}:{node}>{child}" for node, child in pairs),
        )

    def check_costs(
        self, stream: StreamId, tree: MulticastTree, matrix: DenseCostMatrix
    ) -> list[Violation]:
        """Each member's cached path cost against its parent's plus
        ``c(parent, member)``, summed as ``attach`` sums them; a clean
        check replaces the copy.
        """
        costs = tree.path_costs()
        found: list[Violation] = []
        for node, kids in tree.children_map().items():
            base, row = costs.get(node), matrix.row(node)
            for kid in kids:
                cost = costs.get(kid)
                if cost is None:
                    detail = f"{kid} has no cached cost"
                elif base is not None and cost != base + row[kid]:
                    detail = (
                        f"{kid}: cached cost {cost!r} != {base!r} + "
                        f"c({node}, {kid}) {row[kid]!r}"
                    )
                else:
                    continue
                found.append(Violation("path-cost", f"{detail} in tree {stream}"))
        if not found:
            self.costs, self.matrix, self.edits = dict(costs), matrix, matrix.edits
        return found


def _provably_sound(
    source: int, parent: dict[int, int], children: dict[int, list[int]]
) -> bool:
    """True when the two maps provably describe one tree rooted at ``source``.

    Both adjacency views carry the same edges (parent ⊆ children and
    children ⊆ parent, edge by edge) and every member reaches the source
    through members — within ``len(children)`` steps, which no walk that
    revisits a node can do.
    """
    for child, node in parent.items():
        kids = children.get(node)
        if kids is None or child not in kids:
            return False
    limit = len(children)
    for node, kids in children.items():
        for kid in kids:
            if parent.get(kid) != node:
                return False
        steps = 0
        while node != source:
            node = parent.get(node)
            if node is None or node not in children or steps == limit:
                return False
            steps += 1
    return True


class InvariantAuditor:
    """Re-derives control-plane invariants after every audited event.

    Parameters
    ----------
    strict:
        Raise :class:`~repro.errors.SimulationError` on the first
        violation instead of accumulating it.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.events_audited = 0
        self.checks_run = 0
        self.violations: list[Violation] = []
        self._log = hashlib.sha256()
        #: Per stream of the forest audited last, the record of its tree
        #: if that tree was sound.  A record is reused only while the
        #: live tree's maps still equal the copies the record holds.
        self._memo: dict[StreamId, _TreeRecord] = {}

    # -- audit entry points -------------------------------------------------------

    def audit_build(
        self, result: BuildResult, event: str = "build", time_ms: float = 0.0
    ) -> list[Violation]:
        """Audit one build result (forest + state, no pub-sub layer)."""
        found, _, fingerprint = self._check_build(result)
        self._commit(event, time_ms, result.forest, fingerprint, found)
        return found

    def audit_round(
        self,
        result: BuildResult,
        directive: "OverlayDirective",
        rps: Mapping[int, "RPAgent"],
        active: Iterable[int],
        event: str = "round",
        time_ms: float = 0.0,
    ) -> list[Violation]:
        """Audit one full control round: build plus directive installation."""
        found, edges, fingerprint = self._check_build(result)
        found.extend(
            self._check_membership(result, directive, rps, set(active), edges)
        )
        self._commit(event, time_ms, result.forest, fingerprint, found)
        return found

    def report(self) -> AuditReport:
        """Finalize and return the aggregate report (auditor stays usable)."""
        return AuditReport(
            events_audited=self.events_audited,
            checks_run=self.checks_run,
            violations=list(self.violations),
            digest=self._log.hexdigest(),
        )

    # -- individual invariants -----------------------------------------------------

    def _check_build(
        self, result: BuildResult
    ) -> tuple[list[Violation], list[Edge], str]:
        """Everything a build alone decides, plus the forest's sorted
        edges and their fingerprint (the one pass over the trees yields
        both)."""
        found, edges, fingerprint = self._check_forest_structure(result)
        found.extend(self._check_degrees(result, edges))
        found.extend(self._check_latency(result))
        found.extend(self._check_accounting(result))
        return found, edges, fingerprint

    def _check_forest_structure(
        self, result: BuildResult
    ) -> tuple[list[Violation], list[Edge], str]:
        """Acyclicity, reachability, parent/child symmetry and path costs
        per tree.

        The one pass over the forest: trees are visited in ``(site,
        index)`` stream order and each contributes its ``(parent,
        child)``-sorted edge segment, so the segments joined are
        ``sorted(forest.edges())``.  A tree whose maps still equal the
        copies its record holds is not examined again (its path costs
        are, when they or the cost matrix changed); any other tree is,
        and only a sound tree's record is kept — a violation is
        re-derived every time it is reported.
        """
        found: list[Violation] = []
        edges: list[Edge] = []
        texts: list[str] = []
        trees = result.forest.trees
        matrix = result.problem.dense_cost_matrix()
        edits = matrix.edits
        memo = self._memo
        kept: dict[StreamId, _TreeRecord] = {}
        self.checks_run += len(trees)
        for stream, tree in sorted(trees.items()):
            record = memo.get(stream)
            if (
                record is not None
                and record.source == tree.source
                and record.parent == tree.parent_map()
                and record.children == tree.children_map()
            ):
                violations = []
            else:
                violations = self._check_tree(stream, tree)
                record = _TreeRecord.of(stream, tree)
            if (
                record.matrix is not matrix
                or record.edits != edits
                or record.costs != tree.path_costs()
            ):
                violations.extend(record.check_costs(stream, tree, matrix))
            if violations:
                found.extend(violations)
            else:
                kept[stream] = record
            edges.extend(record.edges)
            if record.text:
                texts.append(record.text)
        self._memo = kept
        return found, edges, ",".join(texts)

    def _check_tree(self, stream, tree: MulticastTree) -> list[Violation]:
        if _provably_sound(tree.source, tree.parent_map(), tree.children_map()):
            return []
        found: list[Violation] = []
        children = tree.children_map()
        members = set(children)
        # Parent/child symmetry: both adjacency views carry the same edges.
        parent_edges = {(parent, child) for parent, child in tree.edges()}
        child_edges = {
            (node, child) for node, kids in children.items() for child in kids
        }
        for parent, child in parent_edges - child_edges:
            found.append(
                Violation(
                    "parent-child-symmetry",
                    f"edge {parent}->{child} in parent map only, tree {stream}",
                )
            )
        for parent, child in child_edges - parent_edges:
            found.append(
                Violation(
                    "parent-child-symmetry",
                    f"edge {parent}->{child} in children lists only, tree {stream}",
                )
            )
        # Acyclicity + reachability: walk parents from every member.
        for node in members:
            seen: set[int] = set()
            current = node
            while current != tree.source:
                if current in seen:
                    found.append(
                        Violation(
                            "acyclicity",
                            f"cycle through {current} in tree {stream}",
                        )
                    )
                    break
                seen.add(current)
                parent = tree.parent(current)
                if parent is None or parent not in members:
                    found.append(
                        Violation(
                            "acyclicity",
                            f"{node} cannot reach source of tree {stream}",
                        )
                    )
                    break
                current = parent
        return found

    def _check_degrees(
        self, result: BuildResult, edges: list[Edge]
    ) -> list[Violation]:
        """Per-RP capacity bounds and ledger/forest agreement."""
        found: list[Violation] = []
        problem, state, forest = result.problem, result.state, result.forest
        nodes = range(problem.n_nodes)
        din = dict.fromkeys(nodes, 0)
        dout = dict.fromkeys(nodes, 0)
        for _, parent, child in edges:
            dout[parent] += 1
            din[child] += 1
        # Reservation accounting: m̂_i must equal the number of opened
        # groups sourced at i whose streams are not yet disseminated.
        expected_m_hat = dict.fromkeys(nodes, 0)
        if state.reservations:
            trees, opened = forest.trees, state.opened()
            for group in problem.groups:
                stream = group.stream
                tree = trees.get(stream)
                if (tree is None or not tree.disseminated) and stream in opened:
                    expected_m_hat[stream.site] += 1
        in_limits, out_limits = problem.inbound_limits(), problem.outbound_limits()
        ledger_in, ledger_out = state.din, state.dout
        m_hat, m = state.m_hat, state.m
        self.checks_run += len(nodes)
        for node in nodes:
            if (
                din[node] <= in_limits[node]
                and dout[node] <= out_limits[node]
                and din[node] == ledger_in[node]
                and dout[node] == ledger_out[node]
                and 0 <= m_hat[node] <= m[node]
                and m_hat[node] == expected_m_hat[node]
            ):
                continue
            if din[node] > problem.inbound_limit(node):
                found.append(
                    Violation(
                        "inbound-bound",
                        f"node {node}: din {din[node]} > I "
                        f"{problem.inbound_limit(node)}",
                    )
                )
            if dout[node] > problem.outbound_limit(node):
                found.append(
                    Violation(
                        "outbound-bound",
                        f"node {node}: dout {dout[node]} > O "
                        f"{problem.outbound_limit(node)}",
                    )
                )
            if din[node] != state.din[node] or dout[node] != state.dout[node]:
                found.append(
                    Violation(
                        "degree-ledger",
                        f"node {node}: forest degrees ({din[node]}, "
                        f"{dout[node]}) != ledger ({state.din[node]}, "
                        f"{state.dout[node]})",
                    )
                )
            if not 0 <= state.m_hat[node] <= state.m[node]:
                found.append(
                    Violation(
                        "reservation-range",
                        f"node {node}: m̂ {state.m_hat[node]} outside "
                        f"[0, m={state.m[node]}]",
                    )
                )
            if state.m_hat[node] != expected_m_hat[node]:
                found.append(
                    Violation(
                        "reservation-accounting",
                        f"node {node}: m̂ {state.m_hat[node]} != "
                        f"{expected_m_hat[node]} opened undisseminated "
                        f"sourced groups",
                    )
                )
        return found

    def _check_latency(self, result: BuildResult) -> list[Violation]:
        """Path cost < B_cost for every satisfied subscriber."""
        found: list[Violation] = []
        bound = result.problem.latency_bound_ms
        trees = result.forest.trees
        self.checks_run += len(result.satisfied)
        for request in result.satisfied:
            tree = trees.get(request.stream)
            if tree is not None and request.subscriber in tree.children_map():
                cost = tree.path_costs().get(request.subscriber)
                if cost is not None and cost < bound:
                    continue
            if tree is None or request.subscriber not in tree:
                found.append(
                    Violation(
                        "membership",
                        f"satisfied {request} absent from its tree",
                    )
                )
                continue
            # A member without a cached cost is a path-cost violation,
            # reported where its tree is examined.
            cost = tree.path_costs().get(request.subscriber)
            if cost is not None and not cost < bound:  # NaN fails too
                found.append(
                    Violation(
                        "latency-bound",
                        f"{request}: path {cost:.1f}ms is not < B_cost {bound:.1f}ms",
                    )
                )
        return found

    def _check_accounting(self, result: BuildResult) -> list[Violation]:
        """Every request resolved exactly once, none both ways."""
        self.checks_run += 1
        found: list[Violation] = []
        expected = result.problem.total_requests()
        if result.total_requests != expected:
            found.append(
                Violation(
                    "request-accounting",
                    f"{result.total_requests} resolved, {expected} in problem",
                )
            )
        if not result.rejected:
            return found  # nothing a satisfied request could also be
        satisfied = set(result.satisfied)
        rejected = {request for request, _ in result.rejected}
        for request in satisfied & rejected:
            found.append(
                Violation(
                    "request-accounting",
                    f"{request} both satisfied and rejected",
                )
            )
        return found

    def _check_membership(
        self,
        result: BuildResult,
        directive: "OverlayDirective",
        rps: Mapping[int, "RPAgent"],
        active: set[int],
        edges: list[Edge],
    ) -> list[Violation]:
        """Pub-sub membership ↔ forest consistency.

        ``edges`` is ``sorted(forest.edges())`` from the structure pass.
        The directive's edge table is decoded once, compared edge by edge
        with ``edges``; when they are equal every later check walks the
        tuples of ``edges`` instead.
        """
        found: list[Violation] = []
        self.checks_run += 1
        if len(directive.edges) == len(edges) and all(
            map(eq, directive.edges, edges)
        ):
            directive_edges = distinct = edges
        else:
            # Not the same sorted list: name what differs, if anything does.
            directive_edges = list(directive.edges)
            forest_edges, distinct = set(edges), set(directive_edges)
            for edge in forest_edges - distinct:
                found.append(
                    Violation(
                        "directive-fidelity", f"forest edge {edge} not dictated"
                    )
                )
            for edge in distinct - forest_edges:
                found.append(
                    Violation("directive-fidelity", f"phantom directive edge {edge}")
                )
        # Delivery only to requesters: each receiving site asked for the stream.
        self.checks_run += len(distinct)
        subscribers = {
            group.stream: group.subscribers for group in result.problem.groups
        }
        nobody: frozenset[int] = frozenset()
        if not all(
            child in subscribers.get(stream, nobody)
            for stream, _, child in distinct
        ):
            requested = {
                (member, group.stream)
                for group in result.problem.groups
                for member in group.subscribers
            }
            for stream, _, child in set(directive_edges):
                if (child, stream) not in requested:
                    found.append(
                        Violation(
                            "membership",
                            f"site {child} receives unrequested stream {stream}",
                        )
                    )
        # What the directive has each site forward and receive, from one
        # pass over its edges: not the RP agents' index, which it checks.
        forwarding: dict[int, dict] = {}
        receiving: dict[int, set] = {}
        for stream, parent, child in directive_edges:
            forwarding.setdefault(parent, {}).setdefault(stream, []).append(child)
            receiving.setdefault(child, set()).add(stream)
        for site in sorted(active):
            rp = rps.get(site)
            if rp is None:
                found.append(
                    Violation("membership", f"active site {site} has no RP agent")
                )
                continue
            self.checks_run += 1
            if rp.epoch != directive.epoch:
                found.append(
                    Violation(
                        "directive-fidelity",
                        f"site {site} at epoch {rp.epoch}, directive "
                        f"{directive.epoch}",
                    )
                )
            dictated = forwarding.get(site, {})
            table = rp.forwarding_table()
            if table != dictated:
                for stream, children in dictated.items():
                    forwarded = table.get(stream, [])
                    if sorted(forwarded) != sorted(children):
                        found.append(
                            Violation(
                                "forwarding-table",
                                f"site {site} forwards {stream} to "
                                f"{forwarded}, directive says {children}",
                            )
                        )
                for stream in table:
                    if stream not in dictated:
                        found.append(
                            Violation(
                                "forwarding-table",
                                f"site {site} forwards undictated stream "
                                f"{stream} to {table[stream]}",
                            )
                        )
            if rp.receiving_set() != receiving.get(site, set()):
                found.append(
                    Violation(
                        "forwarding-table",
                        f"site {site} receiving set diverges from directive",
                    )
                )
        self.checks_run += len(result.satisfied)
        for request in result.satisfied:
            rp = rps.get(request.subscriber)
            if rp is not None and request.stream not in rp.receiving_set():
                found.append(
                    Violation(
                        "membership",
                        f"satisfied {request} not receivable at its RP",
                    )
                )
        return found

    # -- log / digest ----------------------------------------------------------------

    def _commit(
        self,
        event: str,
        time_ms: float,
        forest: OverlayForest,
        fingerprint: str,
        found: list[Violation],
    ) -> None:
        """Stamp the audited event into the report and the digest log."""
        self.events_audited += 1
        stamped = [
            Violation(v.invariant, v.detail, event=event, time_ms=time_ms)
            for v in found
        ]
        self.violations.extend(stamped)
        line = (
            f"{time_ms:.3f}|{event}|{fingerprint}|"
            f"sat={len(forest.satisfied)}|rej={len(forest.rejected)}|"
            f"viol={len(stamped)}\n"
        )
        self._log.update(line.encode("utf-8"))
        if self.strict and stamped:
            raise SimulationError(f"invariant violated: {stamped[0].render()}")
