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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.errors import OverlayError
from repro.core.model import RejectionReason

if TYPE_CHECKING:  # pragma: no cover - typing only; the array backend
    # binds this module's scan, and the problem imports the backend.
    from repro.core.forest import MulticastTree
    from repro.core.problem import ForestProblem
    from repro.core.state import BuilderState


class JoinOutcome(
    NamedTuple(
        "JoinOutcome",
        [("accepted", bool), ("parent", int | None),
         ("path_cost_ms", float | None), ("reason", RejectionReason | None)],
    )
):
    """Result of one join attempt."""

    __slots__ = ()

    def __new__(
        cls,
        accepted: bool,
        parent: int | None = None,
        path_cost_ms: float | None = None,
        reason: RejectionReason | None = None,
    ) -> "JoinOutcome":
        if accepted and parent is None:
            raise OverlayError("accepted join must name a parent")
        if not accepted and reason is None:
            raise OverlayError("rejected join must carry a reason")
        return tuple.__new__(cls, (accepted, parent, path_cost_ms, reason))

    @classmethod
    def _make(cls, iterable) -> "JoinOutcome":
        # ``_replace`` builds through ``_make``: both validate.
        return cls(*iterable)


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
) -> JoinOutcome:
    """Decide a join of ``subscriber`` into ``tree`` without writing anything.

    The outcome is what :func:`try_join` would return; an accepted one
    is made real by :func:`commit_join`.  The incremental repairer plans
    against trees it shares with the previous round and copies a tree
    only once a join is known to land in it.
    """
    path_costs = tree.path_costs()  # keyed by member
    if subscriber in path_costs:
        raise OverlayError(
            f"node {subscriber} is already in tree {tree.stream}"
        )
    if not state.inbound_free(subscriber):
        return _REJECT_INBOUND

    candidate = problem.array_backend.parent_scan(problem, state, tree, subscriber)
    if candidate is None:
        return _REJECT_TREE
    path_cost = path_costs[candidate] + problem.edge_cost(candidate, subscriber)
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
) -> JoinOutcome:
    """Attempt to join ``subscriber`` into ``tree``; mutates on success.

    On acceptance the tree gains the edge ``parent -> subscriber`` and
    the builder state is updated (degrees, reservation release).  On
    rejection nothing is mutated.
    """
    outcome = plan_join(problem, state, tree, subscriber)
    if outcome.accepted:
        commit_join(problem, state, tree, subscriber, outcome)
    return outcome


def scan_parent_scalar(
    problem: ForestProblem,
    state: BuilderState,
    tree: MulticastTree,
    subscriber: int,
) -> int | None:
    """The parent scan: one pass over the members in attach order.

    Joins reach it as ``problem.array_backend.parent_scan``.  An
    undisseminated tree is its source alone (trees grow by leaves, and
    ``detach_leaf`` recomputes the flag); the source serves the first
    dissemination from its reserved slot whatever its rfc.  Otherwise
    the first member of largest positive ``rfc = O - dout - m̂`` wins;
    as ``m̂ >= 0`` that implies ``dout < O``, so the path sum is read
    only for a would-be new best.  A NaN path is never under the bound.
    """
    bound = problem.latency_bound_ms
    cost_to_subscriber = problem.costs_to(subscriber)
    dout = state.dout
    outbound = problem.outbound_limits()
    best = None
    if not tree.disseminated:
        source = tree.source
        if dout[source] < outbound[source] and cost_to_subscriber[source] < bound:
            best = source
    else:
        m_hat = state.m_hat
        best_rfc = 0
        for member, cost_from_source in tree.path_costs().items():
            rfc = outbound[member] - dout[member] - m_hat[member]
            if rfc > best_rfc and (
                cost_from_source + cost_to_subscriber[member] < bound
            ):
                best, best_rfc = member, rfc
    return best
