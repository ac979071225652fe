"""The work one heartbeat exchange costs, counted in calls.

A small async session (loss, jitter, duplication, a server outage with
failover, one failed site) runs under :func:`sys.setprofile`.  Every
call into a named function under ``src/repro`` is counted against the
engine event it runs inside: a beat, a heartbeat's arrival at the
server, an ack's arrival at a site, a detector sweep, or other work.
Comprehensions and generator expressions (``<...>`` code objects) are
left out, because whether they get a frame of their own depends on the
interpreter version; what is left counts the same on every one.

The calls per heartbeat sent and per sweep are upper bounds: a fall
passes and prints the new figure, so the pin can be lowered; a rise
fails.  The event, message and beat counts are behaviour, so they are
pinned exactly.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.core.randomized import RandomJoinBuilder
from repro.pubsub.faults import FaultConfig, ServerOutageWindow
from repro.pubsub.messages import Heartbeat, HeartbeatAck
from repro.pubsub.service import MembershipService
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import Simulator, Timer
from repro.util.rng import RngStream

SRC = str(Path(repro.__file__).parent)
HORIZON_MS = 1_500.0

#: Behaviour: these move only when what the session does moves.
EVENTS = 1_357
SENT = 770
HEARTBEATS = 269

#: Work: calls into ``src/repro`` per heartbeat sent (its beat, its
#: arrival and its ack together) and per detector sweep.
MAX_CALLS_PER_BEAT = 19.83
MAX_CALLS_PER_SWEEP = 9.58

SWEEPS = ("_detect", "_client_detect")


def chaos_session(session):
    system = PubSubSystem(session=session, builder=RandomJoinBuilder())
    sim = Simulator()
    service = MembershipService(
        sim=sim,
        server=system.server,
        rps=system.rps,
        build_rng=RngStream(5, label="work-test"),
        control_delay_ms=5.0,
        faults=FaultConfig(
            loss_rate=0.1,
            jitter_ms=3.0,
            duplicate_rate=0.1,
            outages=(ServerOutageWindow(400.0, 600.0),),
        ),
        chaos_rng=RngStream(9, label="chaos"),
        heartbeat_ms=20.0,
        retransmit_timeout_ms=30.0,
        phi_threshold=8.0,
    )
    for site, rp in sorted(system.rps.items()):
        service.advertise(rp.advertisement())
        service.subscribe(rp.aggregate_subscription())
    sim.schedule_at(900.0, service.fail_site, 3)
    return service, sim


def event_kind(frame) -> str:
    """What the engine event rooted at ``frame`` is doing."""
    if frame.f_code is Timer._fire.__code__:
        name = frame.f_locals["self"]._callback.__name__
        return "sweep" if name in SWEEPS else "beat" if name == "_beat" else "other"
    for value in frame.f_locals.values():
        if isinstance(value, (Heartbeat, HeartbeatAck)):
            return "beat"
    return "other"


def count_work(service, sim) -> tuple[Counter, Counter]:
    """Calls per kind of event, and events per kind, over one run."""
    calls: Counter = Counter()
    events: Counter = Counter()
    run_code = Simulator.run.__code__
    kind = ["other"]

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(SRC) or code.co_name.startswith("<"):
            return
        if frame.f_back is not None and frame.f_back.f_code is run_code:
            kind[0] = event_kind(frame)
            events[kind[0]] += 1
        calls[kind[0]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sim.run(until_ms=HORIZON_MS)
    finally:
        sys.setprofile(previous)
    return calls, events


def test_heartbeat_and_sweep_work_stays_at_or_below_its_pins(small_session):
    service, sim = chaos_session(small_session)
    calls, events = count_work(service, sim)

    assert sim.processed_events == EVENTS
    assert service.link.sent == SENT
    assert service.heartbeats_sent == HEARTBEATS
    # The session exercises what the pins are about.
    assert service.server_crashes == 1 and service.server_recoveries == 1
    assert service.link.dropped > 0 and service.link.duplicated > 0
    assert service.detected_failures >= 1

    per_beat = calls["beat"] / service.heartbeats_sent
    per_sweep = calls["sweep"] / events["sweep"]
    for name, value, pin in (
        ("calls per heartbeat", per_beat, MAX_CALLS_PER_BEAT),
        ("calls per sweep", per_sweep, MAX_CALLS_PER_SWEEP),
    ):
        assert value <= pin, f"{name} rose to {value:.2f} (pin {pin})"
        if value < pin - 0.01:
            print(f"{name} fell to {value:.2f} (pin {pin}): lower the pin")
