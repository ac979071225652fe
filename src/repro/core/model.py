"""Core data model: requests, groups, rejection reasons (Table 1).

The paper's notation maps onto these types:

========================  =====================================================
Paper                     Here
========================  =====================================================
``r_i(s_j^q)``            :class:`SubscriptionRequest(subscriber=i, stream=s)`
``G(s)``                  :class:`MulticastGroup(stream=s, subscribers=...)`
``T_s``                   :class:`repro.core.forest.MulticastTree`
``F`` (number of groups)  ``len(problem.groups)``
``u_{i->j}``              ``problem.u(i, j)``
``I_i, O_i``              ``problem.inbound_limit / outbound_limit``
``B_cost``                ``problem.latency_bound_ms``
========================  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import SubscriptionError
from repro.session.streams import StreamId


class SubscriptionRequest(
    NamedTuple("SubscriptionRequest", [("subscriber", int), ("stream", StreamId)])
):
    """The paper's ``r_i(s_j^q)``: RP ``i`` requests stream ``s_j^q``.

    A tuple like :class:`StreamId`, ordered subscriber first.
    """

    __slots__ = ()

    def __new__(cls, subscriber: int, stream: StreamId) -> "SubscriptionRequest":
        if subscriber < 0:
            raise SubscriptionError(f"negative subscriber index: {subscriber}")
        if subscriber == stream.site:
            raise SubscriptionError(
                f"site {subscriber} cannot subscribe to its own stream {stream}"
            )
        return tuple.__new__(cls, (subscriber, stream))

    @classmethod
    def _make(cls, iterable) -> "SubscriptionRequest":
        # ``_replace`` builds through ``_make``: both validate.
        return cls(*iterable)

    @property
    def source(self) -> int:
        """Index ``j`` of the stream's originating site."""
        return self.stream.site

    def __str__(self) -> str:
        return f"r{self.subscriber}({self.stream})"


@dataclass(frozen=True)
class MulticastGroup:
    """The paper's ``G(s)``: the RPs that requested stream ``s``.

    The source node is *not* a member (it publishes rather than
    requests); the tree built for the group spans ``{source} ∪ members``.
    """

    stream: StreamId
    subscribers: frozenset[int]

    def __post_init__(self) -> None:
        if not self.subscribers:
            raise SubscriptionError(f"empty multicast group for {self.stream}")
        if self.stream.site in self.subscribers:
            raise SubscriptionError(
                f"source site {self.stream.site} cannot be a member of G({self.stream})"
            )

    @property
    def source(self) -> int:
        """The originating site of the group's stream."""
        return self.stream.site

    @property
    def size(self) -> int:
        """|G(s)| — the number of requesting RPs (tree size metric)."""
        return len(self.subscribers)

    def requests(self) -> list[SubscriptionRequest]:
        """The group's requests in deterministic (sorted) order, as a fresh
        list callers may reorder."""
        stream = self.stream
        return [SubscriptionRequest(i, stream) for i in sorted(self.subscribers)]

    def __str__(self) -> str:
        members = ",".join(str(i) for i in sorted(self.subscribers))
        return f"G({self.stream})={{{members}}}"


class RejectionReason(enum.Enum):
    """Why a subscription request was rejected."""

    #: The subscriber's inbound degree bound ``I_i`` is saturated.
    INBOUND_SATURATED = "inbound-saturated"
    #: No eligible parent exists in the tree (out-degree or latency).
    TREE_SATURATED = "tree-saturated"
    #: CO-RJ evicted this previously-satisfied request in a swap.
    VICTIM_SWAPPED = "victim-swapped"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value
