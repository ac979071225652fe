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

A directive's ``edges`` and ``rejected`` are flat tables
(:class:`EdgeTable`, :class:`RejectionTable`): integer columns in
``bytes`` plus one tuple of the :class:`StreamId` objects they name.
Drivers keep every directive, and a tuple per edge would stay tracked by
the garbage collector for good; a table is a fixed number of tracked
objects at any size.  Each reads, prints, compares and hashes as the
tuple it replaces.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple, Union

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

#: Every table column packs unsigned C ints; a site field must fit one.
_COLUMN = "I"
_WIDTH = array(_COLUMN).itemsize
_FIELD_MAX = (1 << 8 * _WIDTH) - 1
_REASONS = tuple(RejectionReason)
_REASON_INDEX = {reason: index for index, reason in enumerate(_REASONS)}


def _view(column: bytes) -> memoryview:
    """``column`` read as the unsigned ints it packs."""
    return memoryview(column).cast(_COLUMN)


class StreamIndex(NamedTuple):
    """Sorted stream ids and each one's place in them: what a table's
    stream ordinals index.  The membership server keeps one for the
    session's streams, so every table it emits shares one tuple."""

    streams: tuple[StreamId, ...]
    ordinal: dict[StreamId, int]

    @classmethod
    def of(cls, streams: Iterable[StreamId]) -> "StreamIndex":
        """The index of the distinct ``streams``."""
        ordered = tuple(sorted(set(streams)))
        return cls(ordered, {stream: place for place, stream in enumerate(ordered)})


def _checked_edge(edge, ordinal: dict[StreamId, int] | None) -> Edge:
    """``edge`` as ``(stream, parent, child)``, or a :class:`ProtocolError`
    naming it; with ``ordinal``, its stream must be one of those."""
    try:
        stream, parent, child = edge
    except (TypeError, ValueError):
        raise ProtocolError(
            f"malformed edge {edge!r}: not (stream, parent, child)"
        ) from None
    if not isinstance(stream, StreamId):
        problem = f"{stream!r} is not a stream id"
    elif ordinal is not None and stream not in ordinal:
        problem = f"stream {stream} is not indexed"
    elif not all(
        isinstance(site, int) and 0 <= site <= _FIELD_MAX for site in (parent, child)
    ):
        problem = f"a site outside 0..{_FIELD_MAX}"
    elif parent == child:
        problem = f"self-loop at site {parent}"
    else:
        return stream, parent, child
    raise ProtocolError(f"malformed edge {edge!r}: {problem}")


class _Table(Sequence):
    """What a directive table shares with the tuple of its rows.

    A table holds ``streams`` and ``bytes`` columns (:meth:`_raw`) and
    decodes rows on the way out (``__iter__``, :meth:`_row`); length,
    indexing, slicing, ``==``, ``hash``, ``+`` and ``repr`` answer what
    the tuple of those rows answers.
    """

    __slots__ = ()
    streams: tuple[StreamId, ...]

    def _raw(self) -> tuple[bytes, ...]:
        raise NotImplementedError

    def _row(self, index: int) -> tuple:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._raw()[0]) // _WIDTH

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        return self._row(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Table):
            if type(other) is type(self) and other.streams == self.streams:
                return other._raw() == self._raw()
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if isinstance(other, (tuple, _Table)):
            return tuple(self) + tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(tuple(self))


class EdgeTable(_Table):
    """A directive's relay edges, read as the tuple of :data:`Edge`.

    Row ``r`` is ``(streams[ordinals[r]], parents[r], children[r])``,
    where ``streams`` is a :class:`StreamIndex`'s sorted tuple, so the
    rows of a sorted edge sequence have sorted columns and a position
    can be found with :mod:`bisect` on them (:meth:`columns`).  Decoded
    edges hold the ``streams`` objects themselves; none is built per
    edge.
    """

    __slots__ = ("streams", "_ordinals", "_parents", "_children")

    def __init__(
        self, streams: tuple[StreamId, ...], ordinals, parents, children
    ) -> None:
        """Wrap columns (buffers of unsigned C ints) as they are; to
        encode edges, use :meth:`of`."""
        self.streams = streams
        self._ordinals = bytes(ordinals)
        self._parents = bytes(parents)
        self._children = bytes(children)

    @classmethod
    def of(
        cls, edges: Iterable[Edge], index: StreamIndex | None = None
    ) -> "EdgeTable":
        """Encode ``edges`` in their order, duplicates kept, on ``index``
        (by default, the index of the streams they name).

        Raises
        ------
        ProtocolError
            Naming the first edge that is not ``(StreamId, parent,
            child)`` with an indexed stream and two distinct sites that
            fit a column.
        """
        known = None if index is None else index.ordinal
        rows = [_checked_edge(edge, known) for edge in edges]
        if index is None:
            index = StreamIndex.of(stream for stream, _, _ in rows)
        ordinal = index.ordinal
        return cls(
            index.streams,
            array(_COLUMN, [ordinal[stream] for stream, _, _ in rows]),
            array(_COLUMN, [parent for _, parent, _ in rows]),
            array(_COLUMN, [child for _, _, child in rows]),
        )

    def _raw(self) -> tuple[bytes, ...]:
        return self._ordinals, self._parents, self._children

    def _row(self, index: int) -> Edge:
        return (
            self.streams[_view(self._ordinals)[index]],
            _view(self._parents)[index],
            _view(self._children)[index],
        )

    def __iter__(self) -> Iterator[Edge]:
        return zip(
            map(self.streams.__getitem__, _view(self._ordinals)),
            _view(self._parents),
            _view(self._children),
        )

    def rows(self) -> Iterator[tuple[int, int, int]]:
        """``(ordinal, parent, child)`` per edge, in order, where
        ``streams[ordinal]`` is the edge's stream."""
        return zip(*map(_view, self._raw()))

    def columns(self) -> tuple[array, array, array]:
        """Mutable copies of the ordinal, parent and child columns."""
        copies = array(_COLUMN), array(_COLUMN), array(_COLUMN)
        for copy, column in zip(copies, self._raw()):
            copy.frombytes(column)
        return copies


class RejectionTable(_Table):
    """A directive's rejected requests, read as the tuple of
    ``(SubscriptionRequest, RejectionReason)`` pairs.

    Row ``r`` is ``(SubscriptionRequest(subscribers[r],
    streams[ordinals[r]]), RejectionReason member reasons[r])``;
    ``streams`` is a :class:`StreamIndex`'s, as for :class:`EdgeTable`.
    """

    __slots__ = ("streams", "_subscribers", "_ordinals", "_reasons")

    def __init__(
        self, streams: tuple[StreamId, ...], subscribers, ordinals, reasons
    ) -> None:
        self.streams = streams
        self._subscribers = bytes(subscribers)
        self._ordinals = bytes(ordinals)
        self._reasons = bytes(reasons)

    @classmethod
    def of(
        cls,
        rejected: Iterable[tuple[SubscriptionRequest, RejectionReason]],
        index: StreamIndex | None = None,
    ) -> "RejectionTable":
        """Encode ``rejected`` in its order, duplicates kept, on ``index``
        (by default, the index of the streams it names); an entry that is
        not a (request, reason) pair on an indexed stream is a
        :class:`ProtocolError`."""
        rows = list(rejected)
        for entry in rows:
            try:
                request, reason = entry
            except (TypeError, ValueError):
                request = reason = None
            if not (
                isinstance(request, SubscriptionRequest)
                and isinstance(reason, RejectionReason)
                and request.subscriber <= _FIELD_MAX
                and (index is None or request.stream in index.ordinal)
            ):
                raise ProtocolError(
                    f"malformed rejection {entry!r}: not (request, reason) "
                    "on an indexed stream"
                )
        if index is None:
            index = StreamIndex.of(request.stream for request, _ in rows)
        ordinal = index.ordinal
        return cls(
            index.streams,
            array(_COLUMN, [request.subscriber for request, _ in rows]),
            array(_COLUMN, [ordinal[request.stream] for request, _ in rows]),
            array(_COLUMN, [_REASON_INDEX[reason] for _, reason in rows]),
        )

    def _raw(self) -> tuple[bytes, ...]:
        return self._subscribers, self._ordinals, self._reasons

    def _row(self, index: int) -> tuple[SubscriptionRequest, RejectionReason]:
        fields = (
            _view(self._subscribers)[index],
            self.streams[_view(self._ordinals)[index]],
        )
        return (
            tuple.__new__(SubscriptionRequest, fields),
            _REASONS[_view(self._reasons)[index]],
        )

    def __iter__(self) -> Iterator[tuple[SubscriptionRequest, RejectionReason]]:
        # Rows were validated as requests when encoded: rebuild them
        # without re-running the constructor's checks.
        requests = map(
            tuple.__new__,
            repeat(SubscriptionRequest),
            zip(
                _view(self._subscribers),
                map(self.streams.__getitem__, _view(self._ordinals)),
            ),
        )
        return zip(requests, map(_REASONS.__getitem__, _view(self._reasons)))


@dataclass(frozen=True)
class OverlayDirective:
    """The membership server's answer: the forest, edge by edge.

    Attributes
    ----------
    epoch:
        Monotonic control-round counter.
    edges:
        All relay edges as (stream, parent site, child site), in an
        :class:`EdgeTable` (any iterable of edges given is encoded into
        one).  Always the full authoritative set, even for delta
        directives — the invariant auditor and gap-recovering RPs
        consume it.
    rejected:
        Requests the overlay could not satisfy, with reasons, in a
        :class:`RejectionTable` (encoded like ``edges``).
    base_epoch:
        For a delta directive, the epoch the delta applies against
        (``None`` for a full directive).  Rounds served by the
        incremental repairer emit deltas; an RP whose installed epoch
        matches ``base_epoch`` applies ``added``/``removed`` alone,
        anyone with an epoch gap falls back to ``edges``.
    added / removed:
        The edge delta against ``base_epoch`` (empty for full
        directives): plain tuples of edges, small and walked by every
        RP.
    """

    epoch: int
    edges: EdgeTable
    rejected: RejectionTable = ()
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
        if not isinstance(self.edges, EdgeTable):
            object.__setattr__(self, "edges", EdgeTable.of(self.edges))
        if not isinstance(self.rejected, RejectionTable):
            object.__setattr__(self, "rejected", RejectionTable.of(self.rejected))

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
