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
* **latency bound** — every satisfied subscriber's tree path costs less
  than ``B_cost``;
* **pub-sub ↔ forest consistency** — the directive repeats the forest
  edge-for-edge, every RP's forwarding table and receiving set match the
  directive, streams are delivered only to sites that requested them,
  and every satisfied request is actually receivable at its subscriber.

Every audited event appends a canonical line (event label, forest
fingerprint, violation count) to an internal log; the SHA-256 over that
log is the :attr:`AuditReport.digest`, so two runs of the same scenario
and seed can be compared bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.base import BuildResult
from repro.core.forest import MulticastTree, OverlayForest
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pubsub.messages import OverlayDirective
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

    # -- audit entry points -------------------------------------------------------

    def audit_build(
        self, result: BuildResult, event: str = "build", time_ms: float = 0.0
    ) -> list[Violation]:
        """Audit one build result (forest + state, no pub-sub layer)."""
        found: list[Violation] = []
        found.extend(self._check_forest_structure(result.forest))
        found.extend(self._check_degrees(result))
        found.extend(self._check_latency(result))
        found.extend(self._check_accounting(result))
        self._commit(event, time_ms, result.forest, found)
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
        found: list[Violation] = []
        found.extend(self._check_forest_structure(result.forest))
        found.extend(self._check_degrees(result))
        found.extend(self._check_latency(result))
        found.extend(self._check_accounting(result))
        found.extend(self._check_membership(result, directive, rps, set(active)))
        self._commit(event, time_ms, result.forest, found)
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

    def _check_forest_structure(self, forest: OverlayForest) -> list[Violation]:
        """Acyclicity, reachability and parent/child symmetry per tree."""
        found: list[Violation] = []
        for stream, tree in forest.trees.items():
            self.checks_run += 1
            found.extend(self._check_tree(stream, tree))
        return found

    def _check_tree(self, stream, tree: MulticastTree) -> list[Violation]:
        found: list[Violation] = []
        members = set(tree.members())
        # Parent/child symmetry: both adjacency views carry the same edges.
        parent_edges = {(parent, child) for parent, child in tree.edges()}
        child_edges = {
            (node, child) for node in members for child in tree.children(node)
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

    def _check_degrees(self, result: BuildResult) -> list[Violation]:
        """Per-RP capacity bounds and ledger/forest agreement."""
        found: list[Violation] = []
        problem, state, forest = result.problem, result.state, result.forest
        din = {i: 0 for i in range(problem.n_nodes)}
        dout = {i: 0 for i in range(problem.n_nodes)}
        for _, parent, child in forest.edges():
            dout[parent] += 1
            din[child] += 1
        # Reservation accounting: m̂_i must equal the number of opened
        # groups sourced at i whose streams are not yet disseminated.
        expected_m_hat = {i: 0 for i in range(problem.n_nodes)}
        if state.reservations:
            for group in problem.groups:
                tree = forest.trees.get(group.stream)
                disseminated = tree is not None and tree.disseminated
                if state.is_open(group.stream) and not disseminated:
                    expected_m_hat[group.source] += 1
        for node in range(problem.n_nodes):
            self.checks_run += 1
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
        for request in result.satisfied:
            self.checks_run += 1
            tree = result.forest.trees.get(request.stream)
            if tree is None or request.subscriber not in tree:
                found.append(
                    Violation(
                        "membership",
                        f"satisfied {request} absent from its tree",
                    )
                )
                continue
            cost = tree.cost_from_source(request.subscriber)
            if cost >= bound:
                found.append(
                    Violation(
                        "latency-bound",
                        f"{request}: path {cost:.1f}ms >= B_cost {bound:.1f}ms",
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
    ) -> list[Violation]:
        """Pub-sub membership ↔ forest consistency."""
        found: list[Violation] = []
        forest_edges = set(result.forest.edges())
        directive_edges = set(directive.edges)
        self.checks_run += 1
        for edge in forest_edges - directive_edges:
            found.append(
                Violation("directive-fidelity", f"forest edge {edge} not dictated")
            )
        for edge in directive_edges - forest_edges:
            found.append(
                Violation("directive-fidelity", f"phantom directive edge {edge}")
            )
        # Delivery only to requesters: each receiving site asked for the stream.
        requested = {
            (member, group.stream)
            for group in result.problem.groups
            for member in group.subscribers
        }
        for stream, _, child in directive_edges:
            self.checks_run += 1
            if (child, stream) not in requested:
                found.append(
                    Violation(
                        "membership",
                        f"site {child} receives unrequested stream {stream}",
                    )
                )
        # What the directive has each site forward and receive, from one
        # pass over its edges.  Local to this audit on purpose: directives
        # are retained for the whole run, an index kept on them is not free.
        forwarding: dict[int, dict] = {}
        receiving: dict[int, set] = {}
        for stream, parent, child in directive.edges:
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
            for stream, children in forwarding.get(site, {}).items():
                if sorted(rp.next_hops(stream)) != sorted(children):
                    found.append(
                        Violation(
                            "forwarding-table",
                            f"site {site} forwards {stream} to "
                            f"{rp.next_hops(stream)}, directive says {children}",
                        )
                    )
            if rp.received_streams() != receiving.get(site, set()):
                found.append(
                    Violation(
                        "forwarding-table",
                        f"site {site} receiving set diverges from directive",
                    )
                )
        for request in result.satisfied:
            self.checks_run += 1
            rp = rps.get(request.subscriber)
            if rp is not None and not rp.is_receiving(request.stream):
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
        found: list[Violation],
    ) -> None:
        """Stamp the audited event into the report and the digest log."""
        self.events_audited += 1
        stamped = [
            Violation(v.invariant, v.detail, event=event, time_ms=time_ms)
            for v in found
        ]
        self.violations.extend(stamped)
        fingerprint = ",".join(
            f"{stream}:{parent}>{child}"
            for stream, parent, child in sorted(forest.edges())
        )
        line = (
            f"{time_ms:.3f}|{event}|{fingerprint}|"
            f"sat={len(forest.satisfied)}|rej={len(forest.rejected)}|"
            f"viol={len(stamped)}\n"
        )
        self._log.update(line.encode("utf-8"))
        if self.strict and stamped:
            raise SimulationError(f"invariant violated: {stamped[0].render()}")
