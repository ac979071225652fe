"""Churn experiments: a site leaves, the overlay is rebuilt.

The paper treats overlay construction as a static problem; sessions are
re-solved by the centralized membership server whenever membership or
subscriptions change.  This module measures the cost of that model: how
much of the surviving overlay is disrupted (parents changed) when one
site departs and the forest is rebuilt from scratch.

:attr:`RebuildReport.disruption_ratio` is the single-departure form of
the metric the live control plane now records every round
(:func:`repro.core.incremental.churn_rate`, surfaced as
``ScenarioReport.mean_disruption``); the rebuild policies of
:mod:`repro.core.incremental` exist precisely to drive this number
toward zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import BuildResult, OverlayBuilder
from repro.core.model import MulticastGroup
from repro.core.problem import ForestProblem, ProblemDelta
from repro.session.session import TISession
from repro.util.rng import RngStream
from repro.workload.spec import SubscriptionWorkload


@dataclass(frozen=True)
class RebuildReport:
    """Before/after comparison around one site's departure."""

    leaving_site: int
    satisfied_before: int
    satisfied_after: int
    surviving_requests: int
    parent_changes: int
    rejection_ratio_before: float
    rejection_ratio_after: float

    @property
    def disruption_ratio(self) -> float:
        """Fraction of surviving satisfied requests whose parent moved."""
        if self.surviving_requests == 0:
            return 0.0
        return self.parent_changes / self.surviving_requests


def problem_without_site(
    problem: ForestProblem, leaving_site: int
) -> ForestProblem:
    """Derive the post-departure problem: the site publishes, subscribes
    and relays nothing (its degree bounds drop to zero).

    Costs do not change when a site leaves, so the derived problem
    shares ``problem``'s dense matrix; only the two bound lists are
    copied (:meth:`ForestProblem.evolve_delta`).
    """
    groups = []
    for group in problem.groups:
        if group.source == leaving_site:
            continue
        members = group.subscribers - {leaving_site}
        if members:
            groups.append(MulticastGroup(stream=group.stream, subscribers=members))
    reduced = ForestProblem.evolve_delta(
        problem, ProblemDelta.between(problem.groups, groups)
    )
    reduced.set_inbound_limit(leaving_site, 0)
    reduced.set_outbound_limit(leaving_site, 0)
    return reduced


def rebuild_after_leave(
    session: TISession,
    workload: SubscriptionWorkload,
    leaving_site: int,
    builder: OverlayBuilder,
    rng: RngStream,
    latency_bound_ms: float = 120.0,
) -> tuple[RebuildReport, BuildResult, BuildResult]:
    """Build, remove ``leaving_site``, rebuild; quantify the disruption."""
    before_problem = ForestProblem.from_workload(
        session, workload, latency_bound_ms
    )
    before = builder.build(before_problem, rng.spawn("before"))
    after_problem = problem_without_site(before_problem, leaving_site)
    after = builder.build(after_problem, rng.spawn("after"))

    before_parents = {
        request: before.forest.trees[request.stream].parent(request.subscriber)
        for request in before.satisfied
    }
    after_parents = {
        request: after.forest.trees[request.stream].parent(request.subscriber)
        for request in after.satisfied
    }
    surviving = [
        request
        for request in before_parents
        if request.subscriber != leaving_site
        and request.source != leaving_site
        and request in after_parents
    ]
    changes = sum(
        1
        for request in surviving
        if before_parents[request] != after_parents[request]
    )
    report = RebuildReport(
        leaving_site=leaving_site,
        satisfied_before=len(before.satisfied),
        satisfied_after=len(after.satisfied),
        surviving_requests=len(surviving),
        parent_changes=changes,
        rejection_ratio_before=(
            len(before.rejected) / before.total_requests
            if before.total_requests
            else 0.0
        ),
        rejection_ratio_after=(
            len(after.rejected) / after.total_requests
            if after.total_requests
            else 0.0
        ),
    )
    return report, before, after
