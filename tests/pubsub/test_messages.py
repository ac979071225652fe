"""Tests for the control-plane message vocabulary."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.core.randomized import RandomJoinBuilder
from repro.pubsub.messages import (
    Advertise,
    Advertisement,
    ControlAck,
    DirectiveAck,
    DisplaySubscription,
    Heartbeat,
    HeartbeatAck,
    OverlayDirective,
    RejoinRequest,
    SiteSubscription,
    Subscribe,
    Withdraw,
)
from repro.pubsub.service import ControlConfig, MembershipService, _kind_of
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from repro.session.streams import StreamId
from tests.forced_links import force_drops
from tests.reference_paths import edges_of_site, streams_received_by


class TestDisplaySubscription:
    def test_local_stream_rejected(self):
        with pytest.raises(ProtocolError):
            DisplaySubscription(
                display_id="d0", site=1, streams=(StreamId(1, 0),)
            )

    def test_remote_streams_ok(self):
        sub = DisplaySubscription(
            display_id="d0", site=1, streams=(StreamId(0, 0),)
        )
        assert sub.streams == (StreamId(0, 0),)


class TestAdvertisement:
    def test_foreign_stream_rejected(self):
        with pytest.raises(ProtocolError):
            Advertisement(site=0, streams=(StreamId(1, 0),))


class TestOverlayDirective:
    def make_directive(self) -> OverlayDirective:
        s = StreamId(0, 0)
        t = StreamId(1, 0)
        return OverlayDirective(
            epoch=1,
            edges=((s, 0, 1), (s, 1, 2), (t, 1, 0)),
            rejected=(
                (SubscriptionRequest(2, t), RejectionReason.TREE_SATURATED),
            ),
        )

    def test_edges_of_site(self):
        directive = self.make_directive()
        assert edges_of_site(directive, 1) == [
            (StreamId(0, 0), 2),
            (StreamId(1, 0), 0),
        ]
        assert edges_of_site(directive, 2) == []

    def test_streams_received_by(self):
        directive = self.make_directive()
        assert streams_received_by(directive, 0) == {StreamId(1, 0)}
        assert streams_received_by(directive, 2) == {StreamId(0, 0)}

    def test_full_directive_is_not_delta(self):
        directive = self.make_directive()
        assert not directive.is_delta
        assert directive.payload_edges() == 3

    def test_delta_payload_counts_adds_and_removes(self):
        s = StreamId(0, 0)
        directive = OverlayDirective(
            epoch=2,
            edges=((s, 0, 1), (s, 0, 2)),
            base_epoch=1,
            added=((s, 0, 2),),
            removed=((s, 1, 2),),
        )
        assert directive.is_delta
        assert directive.payload_edges() == 2

    def test_delta_base_must_precede_epoch(self):
        with pytest.raises(ProtocolError):
            OverlayDirective(epoch=2, edges=(), base_epoch=2)

    def test_delta_without_base_rejected(self):
        with pytest.raises(ProtocolError):
            OverlayDirective(
                epoch=2, edges=(), added=((StreamId(0, 0), 0, 1),)
            )


class TestControlEnvelopes:
    def test_advertise_exposes_site(self):
        message = Advertise(
            sent_ms=12.5,
            epoch=3,
            advertisement=Advertisement(site=2, streams=(StreamId(2, 0),)),
        )
        assert (message.site, message.sent_ms, message.epoch) == (2, 12.5, 3)

    def test_subscribe_exposes_site(self):
        message = Subscribe(
            sent_ms=0.0,
            epoch=-1,
            subscription=SiteSubscription(site=1, streams=(StreamId(0, 0),)),
        )
        assert message.site == 1

    def test_withdraw_and_ack_carry_epoch(self):
        withdraw = Withdraw(sent_ms=5.0, epoch=2, site=4)
        ack = DirectiveAck(sent_ms=7.0, epoch=3, site=4)
        assert (withdraw.site, withdraw.epoch) == (4, 2)
        assert (ack.site, ack.epoch) == (4, 3)

    ENVELOPES = (
        Advertise(1.0, 0, Advertisement(site=2, streams=(StreamId(2, 0),))),
        Subscribe(1.0, 0, SiteSubscription(site=2, streams=(StreamId(0, 0),))),
        Withdraw(1.0, 0, 2),
        DirectiveAck(1.0, 0, 2),
        ControlAck(1.0, -1, 2, 5, "advertise"),
        Heartbeat(1.0, 0, 2),
        HeartbeatAck(1.0, -1, 2),
        RejoinRequest(1.0, -1, 2),
    )

    @pytest.mark.parametrize("message", ENVELOPES, ids=lambda m: type(m).__name__)
    def test_every_kind_is_immutable(self, message):
        with pytest.raises(AttributeError):
            message.sent_ms = 2.0
        with pytest.raises(AttributeError):
            message.seq = 9
        assert (message.site, message.seq, message.incarnation) == (2, 0, 0)

    def test_kind_of_maps_every_kind(self):
        assert [_kind_of(message) for message in self.ENVELOPES] == [
            "advertise",
            "subscribe",
            "withdraw",
            "directiveack",
            "controlack",
            "heartbeat",
            "heartbeatack",
            "rejoinrequest",
        ]

    def test_retransmitted_report_is_the_same_envelope(self, small_session):
        """Every copy of a report on the wire is the one envelope the
        site built; immutability is what makes sharing it safe."""
        system = PubSubSystem(session=small_session, builder=RandomJoinBuilder())
        sim = Simulator()
        service = MembershipService(
            sim=sim,
            server=system.server,
            rps=system.rps,
            build_rng=RngStream(5, label="envelope-test"),
            config=ControlConfig(retransmit_timeout_ms=10.0),
        )
        wire = []

        def lose_two_advertise_copies(kind, attempt, args):
            wire.append((kind, args[0], attempt))
            return kind == "advertise" and attempt < 2

        force_drops(service.link, lose_two_advertise_copies)
        sent = service.advertise(system.rps[0].advertisement())
        sim.run()
        copies = [(m, a) for kind, m, a in wire if kind == "advertise"]
        assert [attempt for _, attempt in copies] == [0, 1, 2]
        assert all(message is sent for message, _ in copies)
        assert service.counts.retransmits == 2

