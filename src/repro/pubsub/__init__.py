"""Publish-subscribe control plane (Sec. 3 of the paper).

The 3D cameras are publishers, the 3D displays subscribers, and one
rendezvous point (RP) per site mediates: it forms a star to the local
devices, aggregates the displays' subscriptions, and reports them to a
centralized membership server.  The server solves the overlay
construction problem and dictates to every RP its forwarding table.

* :mod:`repro.pubsub.messages` — the control message vocabulary;
* :mod:`repro.pubsub.faults` — control-link fault injection (loss,
  jitter, duplication, timed partitions);
* :mod:`repro.pubsub.rp` — the per-site RP agent;
* :mod:`repro.pubsub.membership` — the centralized membership server;
* :mod:`repro.pubsub.service` — the event-driven membership service
  (delayed control links, debounced rounds, async directive push);
* :mod:`repro.pubsub.system` — the end-to-end façade used by examples
  and the data-plane simulator.
"""

from repro.pubsub.faults import FaultyLink, PartitionWindow
from repro.pubsub.messages import (
    Advertise,
    Advertisement,
    ControlAck,
    ControlEnvelope,
    DirectiveAck,
    DisplaySubscription,
    Heartbeat,
    OverlayDirective,
    RejoinRequest,
    SiteSubscription,
    Subscribe,
    Withdraw,
)
from repro.pubsub.rp import RPAgent
from repro.pubsub.membership import MembershipServer
from repro.pubsub.service import ControlConfig, ControlRound, MembershipService
from repro.pubsub.system import PubSubSystem

__all__ = [
    "Advertise",
    "Advertisement",
    "ControlAck",
    "ControlConfig",
    "ControlEnvelope",
    "ControlRound",
    "DirectiveAck",
    "FaultyLink",
    "Heartbeat",
    "PartitionWindow",
    "RejoinRequest",
    "DisplaySubscription",
    "OverlayDirective",
    "SiteSubscription",
    "Subscribe",
    "Withdraw",
    "RPAgent",
    "MembershipServer",
    "MembershipService",
    "PubSubSystem",
]
