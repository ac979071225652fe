"""Builder framework: the template shared by every overlay algorithm.

All algorithms in the paper construct trees *incrementally*: each
subscription request is processed by the basic node-join algorithm, and
the algorithms differ only in the **order** requests are scheduled
(tree-by-tree for LTF/STF/MCTF, batches for Gran-LTF, fully shuffled for
RJ) and in what happens **on rejection** (CO-RJ's victim swap).  The
:class:`OverlayBuilder` template captures exactly those two extension
points.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.forest import OverlayForest
from repro.core.model import MulticastGroup, RejectionReason, SubscriptionRequest
from repro.core.node_join import JoinOutcome, ParentPolicy, try_join
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.util.rng import RngStream


@dataclass
class BuildResult:
    """Everything produced by one overlay construction run."""

    problem: ForestProblem
    forest: OverlayForest
    state: BuilderState
    algorithm: str
    _u_hat_cache: dict[int, dict[int, int]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def satisfied(self) -> list[SubscriptionRequest]:
        """Requests that received a tree edge."""
        return self.forest.satisfied

    @property
    def rejected(self) -> list[tuple[SubscriptionRequest, RejectionReason]]:
        """Requests rejected, with their reasons."""
        return self.forest.rejected

    @property
    def total_requests(self) -> int:
        """Satisfied + rejected (every request is accounted exactly once)."""
        return len(self.satisfied) + len(self.rejected)

    def u_hat_matrix(self) -> dict[int, dict[int, int]]:
        """The paper's ``û_{i->j}``: rejected request counts per pair.

        Computed once per result and cached — the correlation metrics
        probe it per (i, j) pair, which used to rescan the full rejected
        list every call.  Code that mutates :attr:`satisfied` or
        :attr:`rejected` after construction (CO-RJ repair sweeps) must
        call :meth:`invalidate_caches`.
        The returned rows are the cache itself; treat them as read-only.
        """
        if self._u_hat_cache is None:
            u_hat: dict[int, dict[int, int]] = {}
            for request, _ in self.rejected:
                row = u_hat.setdefault(request.subscriber, {})
                row[request.source] = row.get(request.source, 0) + 1
            self._u_hat_cache = u_hat
        return self._u_hat_cache

    def u_hat(self, subscriber: int, source: int) -> int:
        """``û_{i->j}`` for one (subscriber, source) pair."""
        return self.u_hat_matrix().get(subscriber, {}).get(source, 0)

    def invalidate_caches(self) -> None:
        """Drop derived caches after mutating the satisfied/rejected lists."""
        self._u_hat_cache = None

    def verify(self) -> None:
        """Validate structural and constraint invariants of the result.

        Checks tree structure, degree bounds, the latency bound for every
        satisfied request, and that the request accounting is exact.
        """
        self.forest.validate()
        self.state.check_invariants()
        bound = self.problem.latency_bound_ms
        for request in self.satisfied:
            tree = self.forest.trees[request.stream]
            cost = tree.cost_from_source(request.subscriber)
            if not cost < bound:  # NaN fails too
                raise AssertionError(
                    f"satisfied request {request} violates latency bound: "
                    f"{cost} is not < {bound}"
                )
        expected = self.problem.total_requests()
        if self.total_requests != expected:
            raise AssertionError(
                f"request accounting mismatch: {self.total_requests} processed, "
                f"{expected} in problem"
            )


@dataclass
class OverlayBuilder(abc.ABC):
    """Template for all overlay-construction algorithms.

    Construction proceeds in **phases**: each phase names the multicast
    groups it *opens* (establishing their sources' outbound
    reservations, see :class:`~repro.core.state.BuilderState`) and the
    request order within the phase.  Tree-based algorithms open one
    group per phase; Gran-LTF opens ``g`` at a time; RJ opens the whole
    forest in a single phase — which is why RJ's reservations protect
    every tree while tree-at-a-time scheduling cannot reserve for trees
    it has not reached.

    Subclasses implement :meth:`phases`; CO-RJ additionally overrides
    :meth:`on_rejected`.
    """

    parent_policy: ParentPolicy = field(default=ParentPolicy.MAX_RFC)

    #: Reservation scope for the m̂ mechanism (see DESIGN.md):
    #:
    #: * ``"lazy"`` (default) — a group's source slot is reserved from
    #:   the moment its first request enters processing until the stream
    #:   is first disseminated; trees not yet reached hold no
    #:   reservations.  This is the reading of Sec. 4.3.1 consistent
    #:   with the paper's own evaluation (monotone granularity gains,
    #:   RJ competitive at high load).
    #: * ``"phase"`` — reservations stand for every group of the current
    #:   construction phase (batch semantics).
    #: * ``"global"`` — every group reserved up front (ablation; makes
    #:   big-batch algorithms hoard capacity).
    #: * ``"off"`` — no reservations (ablation).
    reservation_mode: str = field(default="lazy")

    #: Subclasses override with the paper's algorithm name.
    name: str = "abstract"

    _RESERVATION_MODES = ("lazy", "phase", "global", "off")

    @abc.abstractmethod
    def phases(
        self, problem: ForestProblem, rng: RngStream
    ) -> Iterable[tuple[list[MulticastGroup], list[SubscriptionRequest]]]:
        """Yield (groups opened, ordered requests) per construction phase.

        Across all phases every group and every request of ``problem``
        must appear exactly once.
        """

    def build(self, problem: ForestProblem, rng: RngStream) -> BuildResult:
        """Run the algorithm on ``problem``; deterministic given ``rng``."""
        if self.reservation_mode not in self._RESERVATION_MODES:
            raise ValueError(
                f"reservation_mode must be one of {self._RESERVATION_MODES}, "
                f"got {self.reservation_mode!r}"
            )
        forest = OverlayForest()
        state = BuilderState(
            problem, reservations=self.reservation_mode != "off"
        )
        if self.reservation_mode == "global":
            for group in problem.groups:
                state.open_group(group.stream)
        scheduled = 0
        for groups, requests in self.phases(problem, rng):
            if self.reservation_mode == "phase":
                for group in groups:
                    state.open_group(group.stream)
            for request in requests:
                # "lazy"/"off": a group opens when its first request is
                # processed (for "off" this is pure bookkeeping).
                state.open_group(request.stream)
                scheduled += 1
                self._process(problem, state, forest, request)
        result = BuildResult(
            problem=problem, forest=forest, state=state, algorithm=self.name
        )
        if scheduled != problem.total_requests():
            raise AssertionError(
                f"{self.name} scheduled {scheduled} requests, problem has "
                f"{problem.total_requests()}"
            )
        return result

    # -- template internals --------------------------------------------------------

    def _process(
        self,
        problem: ForestProblem,
        state: BuilderState,
        forest: OverlayForest,
        request: SubscriptionRequest,
    ) -> JoinOutcome:
        """Join one request and record the outcome."""
        tree = forest.tree(request.stream)
        outcome = try_join(
            problem, state, tree, request.subscriber, policy=self.parent_policy
        )
        if outcome.accepted:
            forest.satisfied.append(request)
        else:
            handled = self.on_rejected(problem, state, forest, request, outcome)
            if not handled:
                forest.rejected.append((request, outcome.reason))
        return outcome

    def on_rejected(
        self,
        problem: ForestProblem,
        state: BuilderState,
        forest: OverlayForest,
        request: SubscriptionRequest,
        outcome: JoinOutcome,
    ) -> bool:
        """Rejection hook.

        Return True when the subclass fully handled the request
        (recording it as satisfied or rejected itself); False to let the
        template record the rejection.  The base implementation does
        nothing.
        """
        return False
