"""Tests for the control-plane message vocabulary."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.core.model import RejectionReason, SubscriptionRequest
from repro.pubsub.messages import (
    Advertise,
    Advertisement,
    DirectiveAck,
    DisplaySubscription,
    OverlayDirective,
    SiteSubscription,
    Subscribe,
    Withdraw,
)
from repro.session.streams import StreamId
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
