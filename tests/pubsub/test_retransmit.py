"""Unit tests for the retransmit queue, driven without a membership service.

One :class:`RetransmitQueue` implementation serves reports and directive
pushes; everything here runs it over a bare :class:`Simulator` and a
:class:`FaultyLink` whose forced drops decide which copies die.
"""

from __future__ import annotations

from repro.pubsub.faults import FaultyLink
from repro.pubsub.service import (
    MAX_RETRANSMITS,
    RETRANSMIT_BACKOFF_CAP,
    RetransmitQueue,
    _Pending,
)
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from tests.forced_links import force_drops

TIMEOUT_MS = 20.0
DELAY_MS = 1.0


class Harness:
    """A sender whose acks come straight back over the same link."""

    def __init__(self, lose_first: int = 0, lose_all: bool = False) -> None:
        self.sim = Simulator()
        self.link = FaultyLink(self.sim, RngStream(1, label="retransmit-test"))
        force_drops(
            self.link, lambda kind, attempt, args: lose_all or attempt < lose_first
        )
        self.sent: list[tuple[float, int, int]] = []  # (time, site, attempt)
        self.exhausted: list[_Pending] = []
        self.queue = RetransmitQueue(
            self.sim, TIMEOUT_MS, self.transmit, self.exhausted.append
        )

    def transmit(self, entry: _Pending) -> None:
        self.sent.append((self.sim.now, entry.site, entry.attempts))
        self.link.transmit(entry.site, DELAY_MS, self.arrive, (entry,))

    def arrive(self, entry: _Pending) -> None:
        self.queue.settle(entry.site, entry.number)

    def send(self, site: int, number: int = 1) -> _Pending:
        entry = _Pending(site, number, "report", f"payload-{site}-{number}")
        self.transmit(entry)
        self.queue.track(entry)
        return entry


def test_ack_before_the_first_timeout_cancels_the_timer():
    harness = Harness()
    entry = harness.send(site=0)
    timer = entry.timer
    harness.sim.run()
    assert harness.sent == [(0.0, 0, 0)]
    assert harness.queue.retransmits == 0
    assert len(harness.queue) == 0
    assert timer._cancelled and timer.fired == 0
    assert entry.timer is None


def test_k_lost_copies_give_k_retransmits_at_the_backoff_times():
    harness = Harness(lose_first=4)
    harness.send(site=0)
    harness.sim.run()
    # First timer at the base timeout, then min(t * 2**k, 8t) after retry k.
    assert [time for time, _, _ in harness.sent] == [0.0, 20.0, 60.0, 140.0, 300.0]
    assert [attempt for _, _, attempt in harness.sent] == [0, 1, 2, 3, 4]
    assert harness.queue.retransmits == 4
    assert harness.exhausted == []
    assert len(harness.queue) == 0


def test_backoff_is_capped():
    harness = Harness(lose_all=True)
    harness.send(site=0)
    harness.sim.run()
    times = [time for time, _, _ in harness.sent]
    gaps = [after - before for before, after in zip(times, times[1:])]
    assert gaps == [20.0, 40.0, 80.0, 160.0, 160.0, 160.0]
    assert max(gaps) == TIMEOUT_MS * RETRANSMIT_BACKOFF_CAP


def test_exhaustion_calls_back_once_and_leaves_nothing_armed():
    harness = Harness(lose_all=True)
    entry = harness.send(site=3, number=9)
    events = harness.sim.run()
    assert harness.exhausted == [entry]
    assert entry.attempts == MAX_RETRANSMITS
    assert entry.timer is None
    assert harness.queue.retransmits == MAX_RETRANSMITS
    assert len(harness.queue) == 0
    # Nothing left to fire: a second drain runs no event at all.
    assert events > 0 and harness.sim.run() == 0


def test_cancel_by_site_leaves_other_sites_entries():
    harness = Harness(lose_all=True)
    first = harness.send(site=1, number=2)
    second = harness.send(site=1, number=1)
    other = harness.send(site=2, number=1)
    # Returned by ascending number, whatever the tracking order.
    assert harness.queue.cancel_site(1) == [second, first]
    assert first.timer is None and second.timer is None
    assert len(harness.queue) == 1
    harness.sim.run()
    assert {site for _, site, attempt in harness.sent if attempt} == {2}
    assert harness.exhausted == [other]


def test_clear_returns_entries_in_tracking_order():
    harness = Harness(lose_all=True)
    entries = [harness.send(site=2), harness.send(site=0), harness.send(site=1)]
    assert harness.queue.clear() == entries
    assert len(harness.queue) == 0
    harness.sim.run()
    assert harness.queue.retransmits == 0 and harness.exhausted == []


def test_a_settled_entry_can_be_tracked_again_from_scratch():
    """The replay path: a parked report re-arms at the base timeout."""
    harness = Harness(lose_first=1)
    entry = harness.send(site=0)
    assert harness.queue.settle(0, 1) is entry
    assert harness.queue.settle(0, 1) is None  # a duplicate ack
    harness.sim.run(until_ms=50.0)
    assert harness.queue.retransmits == 0  # the cancelled timer stayed silent
    harness.queue.track(entry)
    harness.sim.run()
    assert harness.sent[-1] == (50.0 + TIMEOUT_MS, 0, 1)
