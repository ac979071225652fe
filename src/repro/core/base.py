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
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.node_join import JoinOutcome, try_join
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

    Construction proceeds in **phases**, each an ordered list of
    requests.  A group *opens* when its first request is processed: its
    source's outbound slot is reserved from then until the stream is
    first disseminated (see :class:`~repro.core.state.BuilderState`), so
    trees not yet reached hold no reservation.  Tree-based algorithms
    run one group per phase; Gran-LTF ``g`` at a time; RJ the whole
    forest in a single phase, which is why every RJ tree's reservation
    stands from early on while tree-at-a-time scheduling cannot reserve
    for trees it has not reached.

    Subclasses implement :meth:`phases`; CO-RJ additionally overrides
    :meth:`on_rejected`.
    """

    #: Subclasses override with the paper's algorithm name.
    name: str = "abstract"

    @abc.abstractmethod
    def phases(
        self, problem: ForestProblem, rng: RngStream
    ) -> Iterable[list[SubscriptionRequest]]:
        """Yield the ordered requests of each construction phase.

        Across all phases every request of ``problem`` must appear
        exactly once.
        """

    def build(self, problem: ForestProblem, rng: RngStream) -> BuildResult:
        """Run the algorithm on ``problem``; deterministic given ``rng``."""
        forest = OverlayForest()
        state = BuilderState(problem)
        scheduled = 0
        for requests in self.phases(problem, rng):
            for request in requests:
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
        outcome = try_join(problem, state, tree, request.subscriber)
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
