"""Tree-based algorithms: LTF, STF, MCTF (Sec. 4.3.2).

All three construct the forest one tree at a time — granularity 1 in the
language of Sec. 5.3 — and differ only in how the multicast groups are
ordered.  Within a group, requests are processed in a randomized order
(as specified at the top of Sec. 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.base import OverlayBuilder
from repro.core.model import MulticastGroup, SubscriptionRequest
from repro.core.problem import ForestProblem
from repro.util.rng import RngStream


@dataclass
class _TreeOrderedBuilder(OverlayBuilder):
    """Common machinery: one construction phase per multicast group.

    Because a group opens only when its own phase starts, no source
    slot is reserved yet for trees further down the order — the
    defining property of granularity-1 construction (Sec. 5.3).
    """

    def phases(
        self, problem: ForestProblem, rng: RngStream
    ) -> Iterator[list[SubscriptionRequest]]:
        for group in self.order_groups(problem):
            requests = group.requests()
            rng.shuffle(requests)
            yield requests

    def order_groups(self, problem: ForestProblem) -> list[MulticastGroup]:
        """Subclasses order the groups; ties break by stream id."""
        raise NotImplementedError


@dataclass
class LargestTreeFirstBuilder(_TreeOrderedBuilder):
    """LTF: construct the largest multicast group first.

    Intuition (Sec. 4.3.2): if the last few trees cannot be built due to
    saturation, the rejected requests are few because the smallest trees
    are what remain.
    """

    name: str = "ltf"

    def order_groups(self, problem: ForestProblem) -> list[MulticastGroup]:
        """Groups by descending |G(s)|, ties by stream id."""
        return sorted(problem.groups, key=lambda g: (-g.size, g.stream))


@dataclass
class SmallestTreeFirstBuilder(_TreeOrderedBuilder):
    """STF: the reversed comparison baseline (smallest group first)."""

    name: str = "stf"

    def order_groups(self, problem: ForestProblem) -> list[MulticastGroup]:
        """Groups by ascending |G(s)|, ties by stream id."""
        return sorted(problem.groups, key=lambda g: (g.size, g.stream))


@dataclass
class MinCapacityTreeFirstBuilder(_TreeOrderedBuilder):
    """MCTF: hardest tree (least aggregate forwarding capacity) first.

    A node's forwarding capacity is ``O_i - m_i`` where ``m_i`` counts
    the streams originating at ``i`` that are subscribed by at least one
    other RP; a tree's capacity aggregates this over the nodes of its
    multicast group.  ``include_source`` optionally adds the source node
    to the aggregate (the paper's G(s) excludes it; the flag exists for
    ablation).
    """

    name: str = "mctf"
    include_source: bool = False

    def order_groups(self, problem: ForestProblem) -> list[MulticastGroup]:
        """Groups by ascending aggregate forwarding capacity."""
        return sorted(
            problem.groups,
            key=lambda g: (self.group_capacity(problem, g), g.stream),
        )

    def group_capacity(self, problem: ForestProblem, group: MulticastGroup) -> int:
        """Aggregate forwarding capacity of the group's nodes."""
        nodes = set(group.subscribers)
        if self.include_source:
            nodes.add(group.source)
        return sum(
            problem.outbound_limit(node) - problem.streams_to_send(node)
            for node in nodes
        )
