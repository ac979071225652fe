"""Tests for membership-server crash/recovery.

The server's registrations are *soft state* in the Scattercast sense:
the directory must survive a process death because every site can
regenerate its own slice.  These tests pin the four pillars —

* a crash erases every piece of in-server state (and only that state),
* directives and acks from a dead incarnation are discarded,
* first contact with a new incarnation triggers a full soft-state
  refresh that reconstructs the registrations bit-for-bit,
* reports a site sent into the outage are parked and replayed, so no
  membership change is ever lost,

plus the durable-checkpoint warm restart, the epoch floor that stops a
cold server from re-issuing installed epochs, and the zero-knob
guarantee that none of this machinery exists until it is asked for.
"""

from __future__ import annotations

import pytest

from repro.core.randomized import RandomJoinBuilder
from repro.errors import ConfigurationError
from repro.pubsub.faults import FaultConfig, ServerOutageWindow
from repro.pubsub.service import MembershipService
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import Simulator
from repro.util.rng import RngStream


def make_crash_service(
    session,
    faults: FaultConfig | None = None,
    heartbeat_ms: float = 40.0,
    miss_threshold: int = 3,
    retransmit_timeout_ms: float = 60.0,
    control_delay_ms: float = 5.0,
    debounce_ms: float = 0.0,
    phi_threshold: float = 0.0,
    checkpoint_interval_ms: float = 0.0,
):
    system = PubSubSystem(session=session, builder=RandomJoinBuilder())
    sim = Simulator()
    service = MembershipService(
        sim=sim,
        server=system.server,
        rps=system.rps,
        build_rng=RngStream(5, label="crash-test"),
        control_delay_ms=control_delay_ms,
        debounce_ms=debounce_ms,
        faults=faults or FaultConfig(),
        chaos_rng=RngStream(9, label="chaos"),
        heartbeat_ms=heartbeat_ms,
        miss_threshold=miss_threshold,
        retransmit_timeout_ms=retransmit_timeout_ms,
        phi_threshold=phi_threshold,
        checkpoint_interval_ms=checkpoint_interval_ms,
    )
    return system, service, sim


def announce_all(system, service) -> None:
    for site, rp in sorted(system.rps.items()):
        service.advertise(rp.advertisement())
        service.subscribe(rp.aggregate_subscription())


class TestCrashSemantics:
    def test_crash_wipes_registrations_and_pending_timers(self, small_session):
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(200.0)
        assert system.server.registered_sites()
        service.crash_server()
        assert service.server_down
        assert not system.server.registered_sites()
        assert not service.pending_build
        assert service.armed_retransmit_state == 0
        assert service.server_crashes == 1

    def test_crash_is_idempotent(self, small_session):
        _, service, sim = make_crash_service(small_session)
        sim.run(50.0)
        service.crash_server()
        service.crash_server()
        assert service.server_crashes == 1
        service.recover_server()
        service.recover_server()
        assert service.server_recoveries == 1
        assert service.incarnation == 2

    def test_messages_into_a_dead_server_vanish(self, small_session):
        system, service, sim = make_crash_service(small_session)
        service.crash_server()
        service.advertise(system.rps[0].advertisement())
        sim.run(100.0)
        assert service.messages_lost_to_outage > 0
        assert not system.server.registered_sites()

    def test_observability_counters_survive_the_crash(self, small_session):
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(200.0)
        rounds_before = len(service.rounds)
        service.crash_server()
        assert len(service.rounds) == rounds_before  # history is ours, not the server's


class TestIncarnations:
    def test_stale_incarnation_directive_discarded(self, small_session):
        """A dead incarnation's directive still crossing the link must
        not install anything on a site that already saw the successor."""
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(300.0)
        # Site 0 learns of incarnation 3 out of band.
        service._known_incarnation[0] = 3
        round_ = service.rounds[-1]
        assert round_.incarnation == 1
        epoch_before = system.rps[0].epoch
        discards_before = service.stale_incarnation_discards
        service._deliver(0, round_)
        assert service.stale_incarnation_discards == discards_before + 1
        assert system.rps[0].epoch == epoch_before

    def test_recovery_bumps_incarnation_and_rounds_carry_it(
        self, small_session
    ):
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(200.0)
        service.crash_server()
        service.recover_server()
        assert service.incarnation == 2
        announce_all(system, service)
        sim.run(600.0)
        assert service.rounds[-1].incarnation == 2

    def test_refresh_reconstructs_soft_state_exactly(self, small_session):
        """Cold restart: heartbeat-carried incarnation discovery makes
        every live site replay its advertise/subscribe pair, and the
        rebuilt registrations hash identically to the pre-crash ones."""
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(300.0)
        digest_before = system.server.soft_state_digest()
        service.crash_server()
        assert system.server.soft_state_digest() != digest_before
        service.recover_server()
        sim.run(800.0)
        assert service.refresh_replays == len(service.live_sites)
        assert system.server.soft_state_digest() == digest_before

    def test_epoch_floor_survives_cold_restart(self, small_session):
        """A cold server fast-forwards to the highest epoch any report
        carries, so it can never re-issue an epoch sites installed."""
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(300.0)
        installed = max(rp.epoch for rp in system.rps.values())
        assert installed > 0
        service.crash_server()
        assert system.server.epoch == 0
        service.recover_server()
        sim.run(900.0)
        assert system.server.epoch > installed
        assert all(rp.epoch > installed for rp in system.rps.values())


class TestParkingAndReplay:
    def outage_faults(self, start=200.0, end=400.0):
        return FaultConfig(outages=(ServerOutageWindow(start, end),))

    def test_ack_starved_reports_park_and_replay(self, small_session):
        """Reports sent into the outage exhaust retransmits, park, and
        land after recovery — the membership change is not lost."""
        system, service, sim = make_crash_service(
            small_session, faults=self.outage_faults()
        )
        assert service.server_failover
        announce_all(system, service)
        sim.run(150.0)
        digest_before = system.server.soft_state_digest()
        sim.run(250.0)
        service.advertise(system.rps[0].advertisement())  # into the void
        sim.run(1200.0)
        service.quiesce()
        sim.run()
        assert service.server_suspicions >= 1
        assert service.reports_parked >= 1
        assert service.reports_replayed == service.reports_parked
        assert service.parked_reports == 0
        assert not service.suspecting_sites
        assert system.server.soft_state_digest() == digest_before

    def test_withdraw_during_outage_survives_it(self, small_session):
        system, service, sim = make_crash_service(
            small_session, faults=self.outage_faults()
        )
        announce_all(system, service)
        sim.run(250.0)
        service.withdraw(0)
        sim.run(1200.0)
        service.quiesce()
        sim.run()
        assert 0 not in system.server.registered_sites()
        assert {1, 2, 3} <= set(system.server.registered_sites())
        assert service.parked_reports == 0

    def test_recovery_latency_is_measured(self, small_session):
        system, service, sim = make_crash_service(
            small_session, faults=self.outage_faults()
        )
        announce_all(system, service)
        sim.run(1200.0)
        service.quiesce()
        sim.run()
        assert service.server_recoveries == 1
        assert len(service.recovery_latencies) == 1
        assert 0.0 <= service.mean_recovery_ms() <= service.max_recovery_ms()


class TestCheckpointRestore:
    def test_warm_restart_restores_the_snapshot(self, small_session):
        system, service, sim = make_crash_service(
            small_session, checkpoint_interval_ms=50.0
        )
        announce_all(system, service)
        sim.run(300.0)
        assert service.checkpoints_taken >= 1
        digest = system.server.soft_state_digest()
        service.crash_server()
        service.recover_server()
        assert service.checkpoint_restores == 1
        assert system.server.soft_state_digest() == digest

    def test_cold_restart_without_checkpoint_is_empty(self, small_session):
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(300.0)
        service.crash_server()
        service.recover_server()
        assert service.checkpoint_restores == 0
        assert not system.server.registered_sites()


class TestZeroKnob:
    def test_defaults_leave_the_machinery_dark(self, small_session):
        """No outages, no φ, no checkpointing: failover stays off, no
        ack stream is added, and every crash counter reads zero."""
        system, service, sim = make_crash_service(small_session)
        announce_all(system, service)
        sim.run(300.0)
        service.quiesce()
        sim.run()
        assert not service.server_failover
        for counter in (
            "server_crashes",
            "server_recoveries",
            "server_suspicions",
            "reports_parked",
            "reports_replayed",
            "refresh_replays",
            "stale_incarnation_discards",
            "messages_lost_to_outage",
            "checkpoints_taken",
            "checkpoint_restores",
        ):
            assert getattr(service, counter) == 0, counter
        assert service.incarnation == 1

    def test_phi_requires_heartbeats(self, small_session):
        with pytest.raises(ConfigurationError, match="phi_threshold"):
            make_crash_service(
                small_session, heartbeat_ms=0.0, phi_threshold=8.0
            )

    @pytest.mark.parametrize(
        "detector",
        [{"heartbeat_ms": 0.0}, {"phi_threshold": 8.0}],
        ids=["no-heartbeats", "phi"],
    )
    def test_miss_threshold_needs_the_static_deadline(self, small_session, detector):
        """No detector reads the missed-beat budget without heartbeats or
        under φ, so a budget off its default is refused, not ignored."""
        with pytest.raises(ConfigurationError, match="miss_threshold"):
            make_crash_service(small_session, miss_threshold=7, **detector)
        make_crash_service(small_session, **detector)

    @pytest.mark.parametrize("value", (-1.0, float("nan")))
    def test_bad_phi_threshold_rejected(self, small_session, value):
        with pytest.raises(ConfigurationError, match="phi"):
            make_crash_service(small_session, phi_threshold=value)

    @pytest.mark.parametrize("value", (-1.0, float("nan"), float("inf")))
    def test_bad_checkpoint_interval_rejected(self, small_session, value):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            make_crash_service(small_session, checkpoint_interval_ms=value)
