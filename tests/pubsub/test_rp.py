"""Tests for the RP agent."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.pubsub.messages import (
    DisplaySubscription,
    OverlayDirective,
    SiteSubscription,
)
from repro.pubsub.rp import RPAgent
from repro.session.streams import StreamId


@pytest.fixture
def agent(small_session) -> RPAgent:
    return RPAgent(small_session.site(0))


def sub(display_id: str, streams) -> DisplaySubscription:
    return DisplaySubscription(
        display_id=display_id, site=0, streams=tuple(streams)
    )


class TestDisplayAggregation:
    def test_union_of_displays(self, agent):
        agent.submit_display_subscription(
            sub("disp-0-0", [StreamId(1, 0), StreamId(1, 1)])
        )
        agent.submit_display_subscription(
            sub("disp-0-1", [StreamId(1, 1), StreamId(2, 0)])
        )
        aggregated = agent.aggregate_subscription()
        assert aggregated.streams == (
            StreamId(1, 0), StreamId(1, 1), StreamId(2, 0),
        )

    def test_resubmission_replaces(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(2, 0)]))
        assert agent.aggregate_subscription().streams == (StreamId(2, 0),)

    def test_clear_display(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        agent.clear_display_subscription("disp-0-0")
        assert agent.aggregate_subscription().streams == ()

    def test_wrong_site_rejected(self, agent):
        with pytest.raises(ProtocolError):
            agent.submit_display_subscription(
                DisplaySubscription(
                    display_id="disp-0-0", site=1, streams=(StreamId(0, 0),)
                )
            )

    def test_unknown_display_rejected(self, agent):
        with pytest.raises(ProtocolError):
            agent.submit_display_subscription(
                sub("ghost-display", [StreamId(1, 0)])
            )


class TestHeldSubscription:
    """The aggregate is rebuilt only after a display wrote to the agent."""

    def union(self, agent):
        """The aggregate from scratch, straight off the display table."""
        streams = {s for held in agent._display_subs.values() for s in held}
        return SiteSubscription(site=0, streams=tuple(sorted(streams)))

    def test_follows_every_submit_and_clear(self, agent):
        steps = [
            lambda: agent.submit_display_subscription(
                sub("disp-0-0", [StreamId(2, 1), StreamId(1, 0)])
            ),
            lambda: agent.submit_display_subscription(
                sub("disp-0-1", [StreamId(1, 0), StreamId(3, 2)])
            ),
            lambda: agent.submit_display_subscription(
                sub("disp-0-0", [StreamId(1, 5)])
            ),
            lambda: agent.clear_display_subscription("disp-0-1"),
            lambda: agent.clear_display_subscription("disp-0-1"),
            lambda: agent.clear_display_subscription("disp-0-0"),
        ]
        assert agent.aggregate_subscription() == self.union(agent)
        for step in steps:
            step()
            assert agent.aggregate_subscription() == self.union(agent)
        assert agent.aggregate_subscription().streams == ()

    def test_same_object_while_nothing_changed(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        held = agent.aggregate_subscription()
        assert agent.aggregate_subscription() is held
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        again = agent.aggregate_subscription()
        assert again == held and again is not held

    def test_rejected_submission_keeps_the_held_one(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        held = agent.aggregate_subscription()
        with pytest.raises(ProtocolError):
            agent.submit_display_subscription(sub("ghost", [StreamId(2, 0)]))
        assert agent.aggregate_subscription() is held


class TestAdvertisement:
    def test_advertises_local_streams(self, agent, small_session):
        advertisement = agent.advertisement()
        assert advertisement.site == 0
        assert set(advertisement.streams) == set(
            small_session.site(0).stream_ids
        )

    def test_built_once_in_stream_order(self, agent, small_session):
        advertisement = agent.advertisement()
        assert agent.advertisement() is advertisement
        assert advertisement.streams == tuple(
            sorted(small_session.site(0).stream_ids)
        )


class TestDirectiveApplication:
    def make_directive(self, epoch=1) -> OverlayDirective:
        return OverlayDirective(
            epoch=epoch,
            edges=(
                (StreamId(1, 0), 1, 0),   # site 0 receives s1^0
                (StreamId(1, 0), 0, 2),   # site 0 relays it to site 2
                (StreamId(0, 0), 0, 3),   # site 0 sends own stream to 3
            ),
        )

    def test_forwarding_table(self, agent):
        agent.apply_directive(self.make_directive())
        assert agent.next_hops(StreamId(1, 0)) == [2]
        assert agent.next_hops(StreamId(0, 0)) == [3]
        assert agent.next_hops(StreamId(9, 9)) == []

    def test_receiving_set(self, agent):
        agent.apply_directive(self.make_directive())
        assert agent.is_receiving(StreamId(1, 0))
        assert not agent.is_receiving(StreamId(0, 0))
        assert agent.received_streams() == {StreamId(1, 0)}

    def test_stale_epoch_rejected(self, agent):
        agent.apply_directive(self.make_directive(epoch=2))
        with pytest.raises(ProtocolError):
            agent.apply_directive(self.make_directive(epoch=2))

    def test_epoch_tracked(self, agent):
        assert agent.epoch == -1
        agent.apply_directive(self.make_directive(epoch=1))
        assert agent.epoch == 1

    def test_displays_for(self, agent):
        agent.submit_display_subscription(sub("disp-0-0", [StreamId(1, 0)]))
        agent.submit_display_subscription(sub("disp-0-1", [StreamId(2, 0)]))
        assert agent.displays_for(StreamId(1, 0)) == ["disp-0-0"]

    def test_satisfied_fraction(self, agent):
        agent.submit_display_subscription(
            sub("disp-0-0", [StreamId(1, 0), StreamId(2, 0)])
        )
        agent.apply_directive(self.make_directive())
        assert agent.satisfied_fraction() == pytest.approx(0.5)

    def test_satisfied_fraction_empty_subscription(self, agent):
        assert agent.satisfied_fraction() == 1.0


class TestDeltaDirectives:
    """apply_directive with edge deltas (repair-served rounds)."""

    FULL_1 = (
        (StreamId(1, 0), 1, 0),   # site 0 receives s1^0
        (StreamId(1, 0), 0, 2),   # relays it to 2
        (StreamId(0, 0), 0, 3),   # own stream to 3
        (StreamId(0, 0), 0, 1),   # own stream to 1
    )
    # Epoch 2: stream s1^0 now relayed to 1 instead of 2; site 0 stops
    # receiving s2^0 never had it; gains s2^0 from site 2.
    FULL_2 = (
        (StreamId(1, 0), 1, 0),
        (StreamId(1, 0), 0, 1),
        (StreamId(0, 0), 0, 3),
        (StreamId(2, 0), 2, 0),
    )

    def delta_directive(self) -> OverlayDirective:
        old, new = set(self.FULL_1), set(self.FULL_2)
        return OverlayDirective(
            epoch=2,
            edges=tuple(sorted(self.FULL_2)),
            base_epoch=1,
            added=tuple(sorted(new - old)),
            removed=tuple(sorted(old - new)),
        )

    def test_delta_equals_full_install(self, small_session):
        """Forwarding tables after a delta apply match a full install."""
        via_delta = RPAgent(small_session.site(0))
        via_full = RPAgent(small_session.site(0))
        first = OverlayDirective(epoch=1, edges=tuple(sorted(self.FULL_1)))
        via_delta.apply_directive(first)
        via_full.apply_directive(first)
        via_delta.apply_directive(self.delta_directive())
        # The twin installs the same epoch as a full-set directive.
        via_full.apply_directive(
            OverlayDirective(epoch=2, edges=tuple(sorted(self.FULL_2)))
        )
        assert via_delta.epoch == via_full.epoch == 2
        for stream in {edge[0] for edge in self.FULL_1 + self.FULL_2}:
            assert via_delta.next_hops(stream) == via_full.next_hops(stream)
        assert via_delta.received_streams() == via_full.received_streams()
        assert via_delta._forwarding == via_full._forwarding

    def test_epoch_gap_falls_back_to_full_set(self, small_session):
        """An RP that missed the base epoch installs from ``edges``."""
        agent = RPAgent(small_session.site(0))   # epoch -1: never installed
        agent.apply_directive(self.delta_directive())
        assert agent.epoch == 2
        assert agent.next_hops(StreamId(1, 0)) == [1]
        assert agent.received_streams() == {StreamId(1, 0), StreamId(2, 0)}

    def test_delta_removing_unknown_edge_rejected(self, small_session):
        agent = RPAgent(small_session.site(0))
        agent.apply_directive(
            OverlayDirective(epoch=1, edges=tuple(sorted(self.FULL_1)))
        )
        bogus = OverlayDirective(
            epoch=2,
            edges=tuple(sorted(self.FULL_1)),
            base_epoch=1,
            removed=((StreamId(5, 5), 0, 2),),
        )
        with pytest.raises(ProtocolError, match="unknown edge"):
            agent.apply_directive(bogus)
