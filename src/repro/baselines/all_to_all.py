"""The all-to-all unicast baseline (the scheme the paper abandons).

In conventional video-conferencing-style dissemination every source
unicasts each stream to every interested site directly: no node ever
relays a foreign stream.  Under per-node degree budgets this saturates
the popular sources quickly — the motivation for the overlay forest.

Two tools are provided:

* :class:`DirectUnicastBuilder` — processes the same request schedule as
  RJ, but the only admissible parent is the *source*, so results are
  directly comparable (same problem instance, same metrics);
* :func:`all_to_all_load` — the paper's Sec. 1 back-of-envelope: the
  out-degree demand of full (unsubscribed) all-to-all distribution,
  showing why even three sites exceed realistic budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.base import BuildResult, OverlayBuilder
from repro.core.forest import OverlayForest
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.core.state import BuilderState
from repro.util.rng import RngStream
from repro.util.units import mbps_for_stream


@dataclass
class DirectUnicastBuilder(OverlayBuilder):
    """All-to-all unicast restricted to subscribed streams.

    Every satisfied request is a direct ``source -> subscriber`` edge;
    saturation of the source's out-degree rejects everything else.  The
    latency bound still applies (a direct edge is the cheapest path, so
    this never rejects a request an overlay could have satisfied on
    latency grounds).
    """

    name: str = "unicast"

    def phases(
        self, problem: ForestProblem, rng: RngStream
    ) -> Iterator[tuple[list[MulticastGroup], list[SubscriptionRequest]]]:
        requests = problem.all_requests()
        rng.shuffle(requests)
        yield list(problem.groups), requests

    def build(self, problem: ForestProblem, rng: RngStream) -> BuildResult:
        """Direct-edge-only construction (no relaying)."""
        forest = OverlayForest()
        state = BuilderState(problem)
        for groups, requests in self.phases(problem, rng):
            for group in groups:
                state.open_group(group.stream)
            for request in requests:
                self._join_direct(problem, state, forest, request)
        return BuildResult(
            problem=problem, forest=forest, state=state, algorithm=self.name
        )

    def _join_direct(
        self,
        problem: ForestProblem,
        state: BuilderState,
        forest: OverlayForest,
        request: SubscriptionRequest,
    ) -> None:
        tree = forest.tree(request.stream)
        source = tree.source
        if not state.inbound_free(request.subscriber):
            forest.rejected.append((request, RejectionReason.INBOUND_SATURATED))
            return
        if not state.outbound_free(source):
            forest.rejected.append((request, RejectionReason.TREE_SATURATED))
            return
        edge_cost = problem.edge_cost(source, request.subscriber)
        if edge_cost >= problem.latency_bound_ms:
            forest.rejected.append((request, RejectionReason.TREE_SATURATED))
            return
        tree.attach(source, request.subscriber, edge_cost)
        state.record_attach(tree, source, request.subscriber)
        forest.satisfied.append(request)


def all_to_all_load(n_sites: int, streams_per_site: int) -> dict[str, float]:
    """Sec. 1 back-of-envelope: bandwidth demand of full all-to-all.

    Every site sends each of its streams to all ``n_sites - 1`` others
    and receives every remote stream.  Returns per-site outbound/inbound
    demand in stream units and in Mbps at the middle of the paper's
    compressed range (7.5 Mbps a stream).
    """
    if n_sites < 2:
        raise ValueError(f"n_sites must be >= 2, got {n_sites}")
    if streams_per_site < 1:
        raise ValueError(f"streams_per_site must be >= 1, got {streams_per_site}")
    stream_mbps = mbps_for_stream()
    out_streams = streams_per_site * (n_sites - 1)
    in_streams = streams_per_site * (n_sites - 1)
    return {
        "out_streams": float(out_streams),
        "in_streams": float(in_streams),
        "out_mbps": out_streams * stream_mbps,
        "in_mbps": in_streams * stream_mbps,
    }
