"""Tests for the end-to-end pub-sub façade."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.core.randomized import RandomJoinBuilder
from repro.fov.geometry import Vec3
from repro.fov.viewpoint import FieldOfView
from repro.pubsub.system import PubSubSystem
from repro.session.streams import StreamId


@pytest.fixture
def system(small_session) -> PubSubSystem:
    return PubSubSystem(
        session=small_session,
        builder=RandomJoinBuilder(),
        latency_bound_ms=150.0,
    )


class TestSubscription:
    def test_explicit_subscription_round(self, system, rng):
        system.subscribe_display(0, "disp-0-0", [StreamId(1, 0)])
        system.subscribe_display(1, "disp-1-0", [StreamId(0, 0)])
        directive = system.run_control_round(rng)
        assert directive.epoch == 1
        assert StreamId(1, 0) in system.rps[0].receiving_set()
        assert StreamId(0, 0) in system.rps[1].receiving_set()

    def test_fov_subscription_resolves_streams(self, system):
        fov = FieldOfView(eye=Vec3(6.0, 0.0, 1.5), target=Vec3(0.0, 0.0, 1.0))
        streams = system.subscribe_display_fov(
            site=0, display_id="disp-0-0", fov=fov, target_site=1,
            max_streams=3,
        )
        assert 1 <= len(streams) <= 3
        assert all(stream.site == 1 for stream in streams)

    def test_fov_at_own_site_rejected(self, system):
        fov = FieldOfView(eye=Vec3(6.0, 0.0, 1.5), target=Vec3(0.0, 0.0, 1.0))
        with pytest.raises(ProtocolError):
            system.subscribe_display_fov(
                site=0, display_id="disp-0-0", fov=fov, target_site=0
            )

    def test_unknown_site_rejected(self, system):
        with pytest.raises(ProtocolError):
            system.subscribe_display(99, "d", [StreamId(1, 0)])


class TestControlRounds:
    def test_resubscription_changes_overlay(self, system, rng):
        system.subscribe_display(0, "disp-0-0", [StreamId(1, 0)])
        system.run_control_round(rng.spawn("1"))
        assert StreamId(1, 0) in system.rps[0].receiving_set()
        system.subscribe_display(0, "disp-0-0", [StreamId(2, 0)])
        system.run_control_round(rng.spawn("2"))
        assert StreamId(2, 0) in system.rps[0].receiving_set()
        assert StreamId(1, 0) not in system.rps[0].receiving_set()

    def test_satisfaction_report(self, system, rng):
        system.subscribe_display(0, "disp-0-0", [StreamId(1, 0)])
        system.run_control_round(rng)
        report = system.satisfaction_report()
        assert report[0] == 1.0
        assert set(report) == {0, 1, 2, 3}

    def test_last_result_exposed(self, system, rng):
        assert system.last_result is None
        system.subscribe_display(0, "disp-0-0", [StreamId(1, 0)])
        system.run_control_round(rng)
        assert system.last_result is not None
        system.last_result.verify()
