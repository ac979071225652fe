"""The rendezvous-point agent.

Within a site the RP forms a star network to the cameras and displays:
it collects all local streams for publication and receives all streams
intended for local participants (Sec. 3.1).  This agent implements the
control-plane half of that role — subscription aggregation and the
forwarding table — which the data-plane simulator then executes.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict

from repro.errors import ProtocolError
from repro.pubsub.messages import (
    Advertisement,
    DisplaySubscription,
    OverlayDirective,
    SiteSubscription,
)
from repro.session.entities import Site
from repro.session.streams import StreamId


def _index(directive: OverlayDirective) -> tuple[tuple, dict, dict]:
    """Per site, the forwarding and receiving tables of ``directive``, from
    one pass over its edge rows (child lists and stream keys in edge order),
    with streams as ordinals into the returned ``directive.edges.streams``.
    A stream delivered to one site twice makes the directive malformed."""
    edges = directive.edges
    forwarding: dict[int, dict[int, list[int]]] = defaultdict(dict)
    receiving: dict[int, set[int]] = defaultdict(set)
    for ordinal, parent, child in edges.rows():
        received = receiving[child]
        if ordinal in received:
            raise ProtocolError(
                f"directive delivers {edges.streams[ordinal]} to site {child} twice"
            )
        received.add(ordinal)
        table = forwarding[parent]
        children = table.get(ordinal)
        if children is None:
            table[ordinal] = [child]
        else:
            children.append(child)
    return edges.streams, forwarding, receiving


class RPAgent:
    """Control-plane state machine of one site's rendezvous point."""

    #: The directive indexed last (held, so ``is`` cannot match a newer one
    #: at a reused address) and its tables: one slot for the class, not
    #: one per directive, since drivers retain every directive.
    _indexed: tuple[OverlayDirective | None, tuple[tuple, dict, dict]] = (
        None,
        ((), {}, {}),
    )

    def __init__(self, site: Site) -> None:
        self.site = site
        self._display_subs: dict[str, tuple[StreamId, ...]] = {}
        #: The two reports, held while what they are built from stands:
        #: the camera array is fixed at session assembly, and only
        #: submit/clear below write ``_display_subs``.
        self._advertisement: Advertisement | None = None
        self._subscription: SiteSubscription | None = None
        self._forwarding: dict[StreamId, list[int]] = {}
        self._receiving: set[StreamId] = set()
        self._epoch = -1

    # -- local star: displays ------------------------------------------------------

    def submit_display_subscription(self, subscription: DisplaySubscription) -> None:
        """Accept a display's stream set; replaces any previous one."""
        if subscription.site != self.site.index:
            raise ProtocolError(
                f"display {subscription.display_id} belongs to site "
                f"{subscription.site}, not {self.site.index}"
            )
        known = {display.display_id for display in self.site.displays}
        if subscription.display_id not in known:
            raise ProtocolError(
                f"unknown display {subscription.display_id!r} at site "
                f"{self.site.index}"
            )
        self._display_subs[subscription.display_id] = subscription.streams
        self._subscription = None

    def clear_display_subscription(self, display_id: str) -> None:
        """Drop a display's subscription (display switched off)."""
        self._display_subs.pop(display_id, None)
        self._subscription = None

    def aggregate_subscription(self) -> SiteSubscription:
        """Union of the local displays' subscriptions (Sec. 3.2).

        "Each RP requests only those streams that are subscribed by at
        least one of its local displays."  The same object is returned
        until a display submits or clears a subscription.
        """
        held = self._subscription
        if held is None:
            union: set[StreamId] = set()
            for streams in self._display_subs.values():
                union.update(streams)
            held = self._subscription = SiteSubscription(
                site=self.site.index,
                streams=tuple(sorted(union)),
            )
        return held

    # -- local star: cameras ---------------------------------------------------------

    def advertisement(self) -> Advertisement:
        """Advertise the streams the local camera array publishes.

        The camera array is fixed once the session is assembled, so the
        advertisement is built on first use and held.
        """
        held = self._advertisement
        if held is None:
            held = self._advertisement = Advertisement(
                site=self.site.index,
                streams=tuple(sorted(self.site.stream_ids)),
            )
        return held

    # -- overlay directive -----------------------------------------------------------

    def apply_directive(
        self, directive: OverlayDirective, supersede: bool = False
    ) -> None:
        """Install the forwarding table dictated by the membership server.

        A delta directive whose ``base_epoch`` matches the installed
        epoch is applied incrementally — only the added/removed edges
        touch the tables.  On an epoch gap (this RP missed a round, or
        never installed one) the full edge set is installed instead.

        ``supersede`` bypasses the monotonic-epoch guard and forces a
        full install: a restarted membership server may re-number epochs
        its dead predecessor already used, so its directives order by
        incarnation, not by epoch — and the delta base chain of the old
        incarnation is meaningless to the new one.
        """
        if not supersede and directive.epoch <= self._epoch:
            raise ProtocolError(
                f"stale directive epoch {directive.epoch} at site "
                f"{self.site.index} (current {self._epoch})"
            )
        if not supersede and directive.is_delta and directive.base_epoch == self._epoch:
            self._apply_delta(directive)
        else:
            indexed, (streams, forwarding, receiving) = RPAgent._indexed
            if indexed is not directive:
                streams, forwarding, receiving = _index(directive)
                RPAgent._indexed = (directive, (streams, forwarding, receiving))
            # Copies: the delta path patches the tables in place.
            me = self.site.index
            self._forwarding = {
                streams[ordinal]: list(kids)
                for ordinal, kids in forwarding.get(me, {}).items()
            }
            self._receiving = set(map(streams.__getitem__, receiving.get(me, ())))
        self._epoch = directive.epoch

    def _apply_delta(self, directive: OverlayDirective) -> None:
        """Patch the installed tables with the directive's edge delta.

        Removals run first so a parent switch (remove + add of the same
        (stream, child) pair under different parents) nets out to an
        unchanged receiving set.  Removing an edge the site lacks, or
        adding one it holds or a second parent, is a protocol error.
        """
        me = self.site.index
        for stream, parent, child in directive.removed:
            if parent == me:
                children = self._forwarding.get(stream)
                if children is None or child not in children:
                    raise ProtocolError(
                        f"delta removes unknown edge {stream}:{parent}->"
                        f"{child} at site {me}"
                    )
                children.remove(child)
                if not children:
                    del self._forwarding[stream]
            if child == me:
                self._receiving.discard(stream)
        for stream, parent, child in directive.added:
            if parent == me:
                children = self._forwarding.setdefault(stream, [])
                if child in children:
                    raise ProtocolError(
                        f"delta adds installed edge {stream}:{parent}->"
                        f"{child} at site {me}"
                    )
                # Sorted, as a full install of the sorted edges leaves it.
                insort(children, child)
            if child == me:
                if stream in self._receiving:
                    raise ProtocolError(
                        f"delta adds a second parent {parent} for {stream} "
                        f"at site {me}"
                    )
                self._receiving.add(stream)

    # -- forwarding-table queries ------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epoch of the installed directive (-1 before the first one)."""
        return self._epoch

    def forwarding_table(self) -> dict[StreamId, list[int]]:
        """Relayed stream -> children sites (shared, read-only)."""
        return self._forwarding

    def receiving_set(self) -> set[StreamId]:
        """Streams delivered to this site (shared, read-only)."""
        return self._receiving

    def next_hops(self, stream: StreamId) -> list[int]:
        """Children sites this RP must relay ``stream`` to."""
        return list(self._forwarding.get(stream, []))

    def satisfied_fraction(self) -> float:
        """Fraction of this site's aggregated subscription actually arriving."""
        wanted = set(self.aggregate_subscription().streams)
        if not wanted:
            return 1.0
        return len(wanted & self._receiving) / len(wanted)
