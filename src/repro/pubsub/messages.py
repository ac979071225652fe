"""Control-plane message vocabulary.

All messages are immutable value objects; the control flow is:

1. each display sends a :class:`DisplaySubscription` to its local RP;
2. each RP aggregates them into a :class:`SiteSubscription` (the union of
   its displays' stream sets, minus local streams) and publishes an
   :class:`Advertisement` of its local streams;
3. the membership server answers with one :class:`OverlayDirective` per
   round, carrying every tree edge of the constructed forest plus the
   rejected requests.

The synchronous path hands these values around directly.  The
event-driven path (:mod:`repro.pubsub.service`) wraps the RP-to-server
half in timestamped *envelopes* — :class:`Advertise`,
:class:`Subscribe`, :class:`Withdraw`, :class:`DirectiveAck` — each
carrying its send time and the sender's installed epoch, so control
messages can propagate over simulated links with per-site delay and the
server can reason about how stale a report is.

Directives can also be *deltas*: when a round was served by the
incremental repairer, the directive names the edge adds/removes against
the previous epoch (``base_epoch``/``added``/``removed``) — the wire
payload a deployment would ship — while ``edges`` keeps the full
authoritative set for auditing and for RPs that missed an epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Union

from repro.errors import ProtocolError
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.session.streams import StreamId


@dataclass(frozen=True)
class DisplaySubscription:
    """A display's desired stream set (already resolved from its FOV)."""

    display_id: str
    site: int
    streams: tuple[StreamId, ...]

    def __post_init__(self) -> None:
        for stream in self.streams:
            if stream.site == self.site:
                raise ProtocolError(
                    f"display {self.display_id} subscribes to local stream {stream}"
                )


@dataclass(frozen=True)
class SiteSubscription:
    """An RP's aggregated subscription: union over its local displays."""

    site: int
    streams: tuple[StreamId, ...]


@dataclass(frozen=True)
class Advertisement:
    """An RP's advertisement of the streams its site publishes."""

    site: int
    streams: tuple[StreamId, ...]

    def __post_init__(self) -> None:
        for stream in self.streams:
            if stream.site != self.site:
                raise ProtocolError(
                    f"site {self.site} advertises foreign stream {stream}"
                )


#: One relay edge on the wire: (stream, parent site, child site).
Edge = tuple[StreamId, int, int]


@dataclass(frozen=True)
class OverlayDirective:
    """The membership server's answer: the forest, edge by edge.

    Attributes
    ----------
    epoch:
        Monotonic control-round counter.
    edges:
        All relay edges as (stream, parent site, child site).  Always
        the full authoritative set, even for delta directives — the
        invariant auditor and gap-recovering RPs consume it.
    rejected:
        Requests the overlay could not satisfy, with reasons.
    base_epoch:
        For a delta directive, the epoch the delta applies against
        (``None`` for a full directive).  Rounds served by the
        incremental repairer emit deltas; an RP whose installed epoch
        matches ``base_epoch`` applies ``added``/``removed`` alone,
        anyone with an epoch gap falls back to ``edges``.
    added / removed:
        The edge delta against ``base_epoch`` (empty for full
        directives).
    """

    epoch: int
    edges: tuple[Edge, ...]
    rejected: tuple[tuple[SubscriptionRequest, RejectionReason], ...] = field(
        default_factory=tuple
    )
    base_epoch: int | None = None
    added: tuple[Edge, ...] = ()
    removed: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.base_epoch is not None and self.base_epoch >= self.epoch:
            raise ProtocolError(
                f"delta base epoch {self.base_epoch} not before epoch "
                f"{self.epoch}"
            )
        if self.base_epoch is None and (self.added or self.removed):
            raise ProtocolError("edge delta without a base epoch")

    @property
    def is_delta(self) -> bool:
        """True when this directive carries an edge delta."""
        return self.base_epoch is not None

    def payload_edges(self) -> int:
        """Edges a deployment would actually ship for this directive.

        Deltas ship only the adds/removes; full directives ship the
        whole forest.  This is the wire-size model the delta path is
        meant to shrink.
        """
        if self.is_delta:
            return len(self.added) + len(self.removed)
        return len(self.edges)


# -- event-driven control envelopes (repro.pubsub.service) ---------------------------
#
# Every asynchronous control message is an immutable ``NamedTuple``,
# cheap enough to build per heartbeat: ``sent_ms`` (when the sender
# handed it to its link), ``epoch`` (the sender's installed directive
# epoch, -1 before any; on a :class:`DirectiveAck`, the acknowledged
# one), the kind's own fields, then two trailing defaults.  ``seq`` is
# the sender's per-site monotonic number: the receiver discards anything
# at or below the latest applied per (site, kind), so reports are
# idempotent under duplication, retransmission and reordering.
# ``incarnation`` stamps server-originated envelopes: sites discard
# older ones and answer the first from a higher one (the server crashed
# and came back empty) with a full soft-state refresh.  ``0`` means
# unsequenced / unversioned, which always applies.  Kinds with equal
# fields compare equal as tuples: dispatch goes by ``isinstance`` and
# dedup by ``(site, seq)``, never by comparing or hashing envelopes.


class Advertise(NamedTuple):
    """An RP pushes its :class:`Advertisement` to the membership service."""

    sent_ms: float
    epoch: int
    advertisement: Advertisement
    seq: int = 0
    incarnation: int = 0

    @property
    def site(self) -> int:
        return self.advertisement.site


class Subscribe(NamedTuple):
    """An RP pushes its aggregated :class:`SiteSubscription`."""

    sent_ms: float
    epoch: int
    subscription: SiteSubscription
    seq: int = 0
    incarnation: int = 0

    @property
    def site(self) -> int:
        return self.subscription.site


class ControlAck(NamedTuple):
    """The server acknowledges one sequenced report from ``site``.

    Sent only when the service runs with retransmission enabled
    (``retransmit_timeout_ms > 0``): receipt stops the site-side
    retransmit timer for ``acked_seq``.  ``kind`` names the
    acknowledged report type for observability; matching is by
    ``(site, acked_seq)`` alone since sequence numbers are per-site
    monotonic across kinds.
    """

    sent_ms: float
    epoch: int
    site: int
    acked_seq: int
    kind: str = ""
    seq: int = 0
    incarnation: int = 0


class _SiteEnvelope(NamedTuple):
    """The header plus ``site``: the fields of the five kinds below."""

    sent_ms: float
    epoch: int
    site: int
    seq: int = 0
    incarnation: int = 0


class Withdraw(_SiteEnvelope):
    """A site leaves (or is declared failed): forget its state."""

    __slots__ = ()


class DirectiveAck(_SiteEnvelope):
    """An RP confirms installation of the directive at ``epoch``."""

    __slots__ = ()


class Heartbeat(_SiteEnvelope):
    """A live site's periodic beat; absence of these *is* the failure signal.

    Heartbeats are fire-and-forget (no seq dedup, no retransmit): the
    next beat supersedes a lost one, and the server only ever reads the
    latest arrival time.
    """

    __slots__ = ()


class HeartbeatAck(_SiteEnvelope):
    """Server-to-site heartbeat response (server-failover mode only).

    Sent for every received :class:`Heartbeat` when the control plane
    runs with server failover armed: the stream of these acks is what a
    site's server-suspicion detector scores, and the ``incarnation``
    stamp is how a site first learns that the server crashed and came
    back.  Like heartbeats they are fire-and-forget — the next beat
    provokes the next ack.
    """

    __slots__ = ()


class RejoinRequest(_SiteEnvelope):
    """Server-to-site: "I no longer know you — re-announce if you're alive."

    Sent when a heartbeat arrives from a site the server has already
    withdrawn (a zombie: it was suspected — e.g. across a partition —
    but is still alive).  A live site answers with a fresh
    advertise/subscribe pair, re-admitting it as a clean join; a site
    that really left simply never beats again and the request stops
    being provoked.
    """

    __slots__ = ()


#: Any asynchronous control message; see the shared header above.
ControlEnvelope = Union[
    Advertise,
    Subscribe,
    Withdraw,
    DirectiveAck,
    ControlAck,
    Heartbeat,
    HeartbeatAck,
    RejoinRequest,
]
