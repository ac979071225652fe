"""Deterministic link impairments for the retransmit and reordering tests.

The product's links have no test hooks: a :class:`FaultyLink` drops
only by partition or seeded loss, a :class:`LatencyNetwork` only by
seeded loss, and every control message rides the service's one
``control_delay_ms``.  These helpers wrap one link *instance*'s
``transmit`` (control) or ``send`` (data) instead.

* :func:`force_drops` drops every copy a predicate picks, before any
  draw: the copy counts as sent and dropped, and the link's RNG never
  sees it, so forced drops compose with seeded chaos.  The predicate is
  called as ``predicate(kind, attempt, args)``: ``kind`` is read off
  the delivery callback (a report's envelope kind, ``"control-ack"``,
  ``"heartbeat"``, ``"directive"``, ``"directive-ack"``, ... or the
  callback's name), ``attempt`` counts the earlier copies of the same
  arguments (by identity) the link was handed, and ``args`` is what the
  callback would have been called with.
* :func:`skew_delays` replaces the one-way delay of the sites
  ``delays`` names, read at send time, so a test can slow one site's
  link mid-run and force out-of-order delivery.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.pubsub.faults import FaultyLink
from repro.pubsub.service import _kind_of

#: Delivery callbacks of :class:`~repro.pubsub.service.MembershipService`
#: and the wire kind each one receives.
_KINDS = {
    "_receive_control_ack": "control-ack",
    "_receive_heartbeat": "heartbeat",
    "_receive_heartbeat_ack": "heartbeat-ack",
    "_receive_rejoin": "rejoin",
    "_deliver": "directive",
    "_receive_ack": "directive-ack",
}


def kind_of(deliver: Callable[..., None], args: tuple) -> str:
    """The wire kind of a message that lands as ``deliver(*args)``."""
    name = getattr(deliver, "__name__", "")
    if name == "_receive":
        return _kind_of(args[0])
    return _KINDS.get(name, name)


def force_drops(link, predicate: Callable[[str, int, tuple], bool]) -> None:
    """Make ``link`` drop, before any draw, each copy ``predicate`` picks."""
    # The arguments' ids -> (the arguments, copies seen so far); holding
    # the arguments keeps their ids from being reused.
    seen: dict[tuple[int, ...], tuple[tuple, int]] = {}

    def picked(deliver: Callable[..., None], args: tuple) -> bool:
        key = tuple(map(id, args))
        attempt = seen.get(key, (args, 0))[1]
        seen[key] = (args, attempt + 1)
        if predicate(kind_of(deliver, args), attempt, args):
            link.sent += 1
            link.dropped += 1
            return True
        return False

    if isinstance(link, FaultyLink):
        transmit = link.transmit

        def forced_transmit(site, base_delay_ms, deliver, args):
            if picked(deliver, args):
                return False
            return transmit(site, base_delay_ms, deliver, args)

        link.transmit = forced_transmit
    else:
        send = link.send

        def forced_send(src, dst, on_delivery, *args):
            if not picked(on_delivery, args):
                send(src, dst, on_delivery, *args)

        link.send = forced_send


def skew_delays(link: FaultyLink, delays: Mapping[int, float]) -> None:
    """Carry site ``s``'s messages after ``delays[s]`` while it is set."""
    transmit = link.transmit

    def skewed_transmit(site, base_delay_ms, deliver, args):
        return transmit(site, delays.get(site, base_delay_ms), deliver, args)

    link.transmit = skewed_transmit
