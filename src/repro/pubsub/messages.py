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


@dataclass(frozen=True)
class ControlEnvelope:
    """Common header of every asynchronous control message.

    Attributes
    ----------
    sent_ms:
        Simulation time the sender handed the message to its control
        link.
    epoch:
        The sender's installed directive epoch at send time (-1 before
        any directive).  On RP-to-server reports it is provenance the
        wire format carries (how stale a view the report was made
        under); on a :class:`DirectiveAck` it names the acknowledged
        epoch and the service validates it against the pending round.
    seq:
        Per-site monotonic sequence number, assigned by the sending
        service.  The receiving side keeps the latest applied ``seq``
        per (site, message kind) and discards anything at or below it,
        which makes every report idempotent under the duplication,
        retransmission and reordering a lossy link produces.  ``0``
        marks an unsequenced envelope (hand-built test messages, or
        kinds like heartbeats that never need dedup) — those always
        apply.
    incarnation:
        The membership server's incarnation number at send time,
        stamped on every *server-originated* envelope (acks, rejoin
        requests, heartbeat responses).  Sites discard anything from an
        incarnation below the highest they have seen, and treat the
        first contact from a *higher* incarnation as "the server
        crashed and came back empty": they answer with a full
        soft-state refresh.  ``0`` marks an unversioned envelope
        (site-to-server reports, hand-built test messages) — those are
        never discarded on incarnation grounds.
    """

    sent_ms: float
    epoch: int
    seq: int = field(default=0, kw_only=True)
    incarnation: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class Advertise(ControlEnvelope):
    """An RP pushes its :class:`Advertisement` to the membership service."""

    advertisement: Advertisement

    @property
    def site(self) -> int:
        return self.advertisement.site


@dataclass(frozen=True)
class Subscribe(ControlEnvelope):
    """An RP pushes its aggregated :class:`SiteSubscription`."""

    subscription: SiteSubscription

    @property
    def site(self) -> int:
        return self.subscription.site


@dataclass(frozen=True)
class Withdraw(ControlEnvelope):
    """A site leaves (or is declared failed): forget its state."""

    site: int


@dataclass(frozen=True)
class DirectiveAck(ControlEnvelope):
    """An RP confirms installation of the directive at ``epoch``."""

    site: int


@dataclass(frozen=True)
class ControlAck(ControlEnvelope):
    """The server acknowledges one sequenced report from ``site``.

    Sent only when the service runs with retransmission enabled
    (``retransmit_timeout_ms > 0``): receipt stops the site-side
    retransmit timer for ``acked_seq``.  ``kind`` names the
    acknowledged report type for observability; matching is by
    ``(site, acked_seq)`` alone since sequence numbers are per-site
    monotonic across kinds.
    """

    site: int
    acked_seq: int
    kind: str = ""


@dataclass(frozen=True)
class Heartbeat(ControlEnvelope):
    """A live site's periodic beat; absence of these *is* the failure signal.

    Heartbeats are fire-and-forget (no seq dedup, no retransmit): the
    next beat supersedes a lost one, and the server only ever reads the
    latest arrival time.
    """

    site: int


@dataclass(frozen=True)
class HeartbeatAck(ControlEnvelope):
    """Server-to-site heartbeat response (server-failover mode only).

    Sent for every received :class:`Heartbeat` when the control plane
    runs with server failover armed: the stream of these acks is what a
    site's server-suspicion detector scores, and the ``incarnation``
    stamp is how a site first learns that the server crashed and came
    back.  Like heartbeats they are fire-and-forget — the next beat
    provokes the next ack.
    """

    site: int


@dataclass(frozen=True)
class RejoinRequest(ControlEnvelope):
    """Server-to-site: "I no longer know you — re-announce if you're alive."

    Sent when a heartbeat arrives from a site the server has already
    withdrawn (a zombie: it was suspected — e.g. across a partition —
    but is still alive).  A live site answers with a fresh
    advertise/subscribe pair, re-admitting it as a clean join; a site
    that really left simply never beats again and the request stops
    being provoked.
    """

    site: int
