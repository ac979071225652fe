"""The basic node-join algorithm (Sec. 4.3.1, Appendix A, Fig. 6).

Joining ``RP_i`` into the existing tree ``T_s``:

1. **Inbound check** — reject immediately when ``din_i >= I_i``.
2. **Parent search** — among current tree members ``k`` (which, by
   membership, already have the stream) that still have free out-degree
   (``dout_k < O_k``) and satisfy the latency bound
   (``cost(source->k in tree) + c(k, i) < B_cost``), pick the parent with
   the **maximum remaining forwarding capacity**
   ``rfc_k = O_k - dout_k - m̂_k`` — the load-balancing heart of the
   scheme — requiring ``rfc_k > 0``.
3. **Reservation** — when the tree consists of the source alone (its
   stream not yet disseminated), the source is eligible regardless of its
   rfc: the outbound slot counted by ``m̂`` was reserved precisely for
   this first dissemination.  (Because trees grow from the source, "not
   yet disseminated" is equivalent to "the tree has no other member".)
4. If no candidate survives, the tree is *saturated* and the request is
   rejected.

Fidelity note: the paper's pseudo-code handles the already-reserved
source with the comparison ``O_k - m̂ > max`` without subtracting
``dout`` and without updating ``max``; we treat the source uniformly via
its rfc once the stream is disseminated (and document this as the one
interpretation choice — it preserves the stated intent of load
balancing and reproduces the Fig. 6 worked example exactly).

Alternative ``ParentPolicy`` values exist for the ablation baselines:
``MIN_COST`` picks the latency-closest eligible parent and ``FIRST_FIT``
the first eligible member, both ignoring rfc.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import OverlayError
from repro.core.model import RejectionReason

if TYPE_CHECKING:  # pragma: no cover - typing only; the array backend
    # binds this module's scan, and the problem imports the backend.
    from repro.core.forest import MulticastTree
    from repro.core.problem import ForestProblem
    from repro.core.state import BuilderState


class ParentPolicy(enum.Enum):
    """How the node-join algorithm chooses among eligible parents."""

    #: The paper's policy: maximize remaining forwarding capacity.
    MAX_RFC = "max-rfc"
    #: Ablation: minimize the resulting source->subscriber path latency.
    MIN_COST = "min-cost"
    #: Ablation: first eligible member in insertion order.
    FIRST_FIT = "first-fit"


@dataclass(frozen=True)
class JoinOutcome:
    """Result of one join attempt."""

    accepted: bool
    parent: int | None = None
    path_cost_ms: float | None = None
    reason: RejectionReason | None = None

    def __post_init__(self) -> None:
        if self.accepted and self.parent is None:
            raise OverlayError("accepted join must name a parent")
        if not self.accepted and self.reason is None:
            raise OverlayError("rejected join must carry a reason")


# Rejections carry no per-attempt data, so the two possible outcomes are
# shared singletons (tens of thousands are produced per sweep build).
_REJECT_INBOUND = JoinOutcome(
    accepted=False, reason=RejectionReason.INBOUND_SATURATED
)
_REJECT_TREE = JoinOutcome(
    accepted=False, reason=RejectionReason.TREE_SATURATED
)


def plan_join(
    problem: ForestProblem,
    state: BuilderState,
    tree: MulticastTree,
    subscriber: int,
    policy: ParentPolicy = ParentPolicy.MAX_RFC,
) -> JoinOutcome:
    """Decide a join of ``subscriber`` into ``tree`` without writing anything.

    The outcome is what :func:`try_join` would return; an accepted one
    is made real by :func:`commit_join`.  The incremental repairer plans
    against trees it shares with the previous round and copies a tree
    only once a join is known to land in it.
    """
    if subscriber in tree:
        raise OverlayError(
            f"node {subscriber} is already in tree {tree.stream}"
        )
    if not state.inbound_free(subscriber):
        return _REJECT_INBOUND

    candidate = problem.array_backend.parent_scan(
        problem, state, tree, subscriber, policy
    )
    if candidate is None:
        return _REJECT_TREE
    path_cost = tree.cost_from_source(candidate) + problem.edge_cost(
        candidate, subscriber
    )
    return JoinOutcome(True, candidate, path_cost)


def commit_join(
    problem: ForestProblem,
    state: BuilderState,
    tree: MulticastTree,
    subscriber: int,
    outcome: JoinOutcome,
) -> None:
    """Apply an accepted :func:`plan_join` outcome to ``tree`` and ``state``.

    ``tree`` may be a clone of the tree the plan was made against.
    """
    parent = outcome.parent
    tree.attach(parent, subscriber, problem.edge_cost(parent, subscriber))
    state.record_attach(tree, parent, subscriber)


def try_join(
    problem: ForestProblem,
    state: BuilderState,
    tree: MulticastTree,
    subscriber: int,
    policy: ParentPolicy = ParentPolicy.MAX_RFC,
) -> JoinOutcome:
    """Attempt to join ``subscriber`` into ``tree``; mutates on success.

    On acceptance the tree gains the edge ``parent -> subscriber`` and
    the builder state is updated (degrees, reservation release).  On
    rejection nothing is mutated.
    """
    outcome = plan_join(problem, state, tree, subscriber, policy)
    if outcome.accepted:
        commit_join(problem, state, tree, subscriber, outcome)
    return outcome


def scan_parent_scalar(
    problem: ForestProblem,
    state: BuilderState,
    tree: MulticastTree,
    subscriber: int,
    policy: ParentPolicy,
) -> int | None:
    """The parent scan (scalar probes, one pass in attach order).

    One pass over the tree members against the precomputed dense cost
    column of the subscriber — no per-candidate dict-of-dict hops.  The
    degree/reservation tables are likewise read directly: this loop is
    the innermost hot path of every overlay build.  Ties go to the first
    member in attach order, MAX_RFC needs a strictly positive rfc, and an
    undisseminated source is the provisional best.  Joins reach it as
    ``problem.array_backend.parent_scan``.
    """
    best: int | None = None
    best_rfc = 0  # MAX_RFC requires strictly positive rfc (paper's max <- 0)
    best_cost = float("inf")
    cost_to_subscriber = problem.costs_to(subscriber)
    path_costs = tree.path_costs()
    bound = problem.latency_bound_ms
    # Flat node-indexed lists: every probe below is one list indexing.
    dout = state.dout
    outbound = problem.outbound_limits()
    m_hat = state.m_hat
    for member, cost_from_source in path_costs.items():
        out_limit = outbound[member]
        if dout[member] >= out_limit:
            continue
        path_cost = cost_from_source + cost_to_subscriber[member]
        if path_cost >= bound:
            continue
        if policy is ParentPolicy.FIRST_FIT:
            return member
        if policy is ParentPolicy.MIN_COST:
            if path_cost < best_cost:
                best, best_cost = member, path_cost
            continue
        # MAX_RFC (the paper's policy)
        if member == tree.source and not tree.disseminated:
            # Reserved slot: the source may always serve the first
            # dissemination of its own stream (rfc not consulted).
            best = member
            continue
        rfc = out_limit - dout[member] - m_hat[member]
        if rfc > best_rfc:
            best, best_rfc = member, rfc
    return best
