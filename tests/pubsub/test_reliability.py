"""Tests for the control plane's self-healing machinery.

Covers the three reliability mechanisms the fault layer exists to
exercise — idempotent sequencing, retransmit with capped backoff, and
heartbeat failure detection — plus the withdraw-vs-heartbeat race the
dedupe path exists for.
"""

from __future__ import annotations

import pytest

from repro.core.randomized import RandomJoinBuilder
from repro.pubsub.faults import FaultConfig, PartitionWindow
from repro.pubsub.messages import Advertise, Subscribe, Withdraw
from repro.pubsub.service import MAX_RETRANSMITS, MembershipService, _Pending
from repro.pubsub.system import PubSubSystem
from repro.sim.engine import Simulator
from repro.util.rng import RngStream
from tests.forced_links import force_drops


def make_chaos_service(
    session,
    faults: FaultConfig | None = None,
    heartbeat_ms: float = 0.0,
    miss_threshold: int = 3,
    retransmit_timeout_ms: float = 0.0,
    drop=None,
    control_delay_ms: float = 0.0,
    debounce_ms: float = 0.0,
) -> tuple[PubSubSystem, MembershipService, Simulator]:
    system = PubSubSystem(session=session, builder=RandomJoinBuilder())
    sim = Simulator()
    service = MembershipService(
        sim=sim,
        server=system.server,
        rps=system.rps,
        build_rng=RngStream(5, label="reliability-test"),
        control_delay_ms=control_delay_ms,
        debounce_ms=debounce_ms,
        faults=faults or FaultConfig(),
        chaos_rng=RngStream(9, label="chaos"),
        heartbeat_ms=heartbeat_ms,
        miss_threshold=miss_threshold,
        retransmit_timeout_ms=retransmit_timeout_ms,
    )
    if drop is not None:
        force_drops(service.link, drop)
    return system, service, sim


def announce_all(system: PubSubSystem, service: MembershipService) -> None:
    for site, rp in sorted(system.rps.items()):
        service.advertise(rp.advertisement())
        service.subscribe(rp.aggregate_subscription())


class TestSequencing:
    def test_seq_monotonic_per_site(self, small_session):
        _, service, _ = make_chaos_service(small_session)
        first = service.advertise(service.rps[0].advertisement())
        second = service.subscribe(service.rps[0].aggregate_subscription())
        other = service.advertise(service.rps[1].advertisement())
        assert (first.seq, second.seq) == (1, 2)
        assert other.seq == 1  # independent counter per site

    def test_duplicate_report_discarded(self, small_session):
        system, service, sim = make_chaos_service(small_session)
        message = service.advertise(system.rps[0].advertisement())
        sim.run()
        applied_before = system.server.registrations_applied
        rounds_before = len(service.rounds)
        service._receive(message)  # a duplicate copy arrives
        sim.run()
        assert service.duplicates_discarded == 1
        # No re-apply, and crucially no extra build round was dirtied.
        assert system.server.registrations_applied == applied_before
        assert len(service.rounds) == rounds_before

    def test_withdraw_floor_kills_reordered_pre_leave_reports(
        self, small_session
    ):
        system, service, sim = make_chaos_service(small_session)
        rp = system.rps[2]
        advertise = Advertise(
            sent_ms=0.0, epoch=-1, advertisement=rp.advertisement(), seq=1
        )
        late_subscribe = Subscribe(
            sent_ms=0.0,
            epoch=-1,
            subscription=rp.aggregate_subscription(),
            seq=2,
        )
        withdraw = Withdraw(sent_ms=0.0, epoch=-1, site=2, seq=3)
        service._receive(advertise)
        assert system.server.is_registered(2)
        service._receive(withdraw)
        assert not system.server.is_registered(2)
        # The pre-leave subscription arrives after the withdrawal: it
        # must not resurrect the departed site.
        service._receive(late_subscribe)
        assert service.stale_reports_discarded == 1
        assert not system.server.is_registered(2)

    def test_unsequenced_envelopes_always_apply(self, small_session):
        """seq=0 marks hand-built legacy envelopes: no dedup applies."""
        system, service, _ = make_chaos_service(small_session)
        rp = system.rps[0]
        message = Advertise(
            sent_ms=0.0, epoch=-1, advertisement=rp.advertisement()
        )
        assert message.seq == 0
        service._receive(message)
        service._receive(message)
        assert service.duplicates_discarded == 0
        assert system.server.is_registered(0)


def sequenced_reports(rp, site: int):
    """Advertise seq 1, Withdraw seq 2, re-Advertise seq 3 of one site."""
    return (
        Advertise(sent_ms=0.0, epoch=-1, advertisement=rp.advertisement(), seq=1),
        Withdraw(sent_ms=0.0, epoch=-1, site=site, seq=2),
        Advertise(sent_ms=0.0, epoch=-1, advertisement=rp.advertisement(), seq=3),
    )


class TestStalenessRule:
    """One read-only rule says which reports delivery would discard;
    ``_receive`` discards by it and ``parked_reports`` counts by it."""

    def test_fresh_and_unsequenced_reports_are_kept(self, small_session):
        _, service, _ = make_chaos_service(small_session)
        assert service._discard_reason(2, "advertise", 1) is None
        assert service._discard_reason(2, "withdraw", 1) is None
        assert service._discard_reason(2, "advertise", 0) is None

    def test_seq_at_or_below_the_applied_one_is_a_duplicate(self, small_session):
        system, service, _ = make_chaos_service(small_session)
        advertise, _, _ = sequenced_reports(system.rps[2], 2)
        service._receive(advertise)
        assert service._discard_reason(2, "advertise", 1) == "duplicate"
        assert service._discard_reason(2, "advertise", 2) is None
        # Each report kind keeps its own applied seq.
        assert service._discard_reason(2, "subscribe", 1) is None

    def test_state_behind_the_withdraw_floor_is_stale(self, small_session):
        system, service, _ = make_chaos_service(small_session)
        advertise, withdraw, _ = sequenced_reports(system.rps[2], 2)
        service._receive(advertise)
        service._receive(withdraw)
        assert service._discard_reason(2, "subscribe", 1) == "stale"
        assert service._discard_reason(2, "subscribe", 3) is None

    def test_withdraw_outrun_by_the_rejoin_is_a_straggler(self, small_session):
        system, service, _ = make_chaos_service(small_session)
        advertise, withdraw, rejoin = sequenced_reports(system.rps[2], 2)
        service._receive(advertise)
        service._receive(rejoin)
        assert service._discard_reason(2, "withdraw", 2) == "straggler"
        service._receive(withdraw)
        assert service.stale_reports_discarded == 1
        assert system.server.is_registered(2)
        # The straggler's seq is recorded: a second copy is a duplicate.
        assert service._discard_reason(2, "withdraw", 2) == "duplicate"
        service._receive(withdraw)
        assert service.duplicates_discarded == 1
        assert system.server.is_registered(2)

    def test_rule_reads_without_recording(self, small_session):
        system, service, _ = make_chaos_service(small_session)
        advertise, withdraw, _ = sequenced_reports(system.rps[2], 2)
        service._receive(advertise)
        service._receive(withdraw)
        applied = dict(service._applied_seq)
        floor = dict(service._withdraw_floor)
        for kind in ("advertise", "subscribe", "withdraw"):
            for seq in range(5):
                service._discard_reason(2, kind, seq)
        assert service._applied_seq == applied
        assert service._withdraw_floor == floor

    def test_parked_reports_count_only_what_delivery_keeps(self, small_session):
        system, service, _ = make_chaos_service(small_session)
        advertise, _, rejoin = sequenced_reports(system.rps[2], 2)
        service._receive(advertise)
        service._receive(rejoin)
        service._receive(
            Advertise(
                sent_ms=0.0, epoch=-1, advertisement=system.rps[1].advertisement(), seq=1
            )
        )
        service._receive(Withdraw(sent_ms=0.0, epoch=-1, site=1, seq=3))
        parked = {
            (2, 1): "advertise",  # duplicate: applied up to seq 3
            (1, 2): "subscribe",  # stale: site 1 withdrew at seq 3
            (2, 2): "withdraw",  # straggler: site 2 rejoined at seq 3
            (2, 4): "subscribe",  # still to apply
        }
        for (site, seq), kind in parked.items():
            service._parked[(site, seq)] = _Pending(site, seq, kind, None)
        reasons = [
            service._discard_reason(site, kind, seq)
            for (site, seq), kind in parked.items()
        ]
        assert reasons == ["duplicate", "stale", "straggler", None]
        assert service.parked_reports == 1


class TestWithdrawHeartbeatRace:
    def test_leave_after_suspicion_does_not_double_withdraw(
        self, small_session
    ):
        """Server already suspected the site; the explicit LEAVE arriving
        afterwards must not withdraw twice or roll a second epoch."""
        system, service, sim = make_chaos_service(small_session)
        announce_all(system, service)
        sim.run()
        rounds_before = len(service.rounds)
        service._suspect(2)  # the failure detector got there first
        service.withdraw(2)  # ...then the explicit LEAVE lands
        sim.run()
        assert service.duplicate_withdraws == 1
        # Exactly one extra round: the suspicion's, not the LEAVE's.
        assert len(service.rounds) == rounds_before + 1
        assert not system.server.is_registered(2)

    def test_suspicion_after_leave_is_a_noop(self, small_session):
        """The reverse order: the site already left, so the detector
        sweep finds nothing to suspect."""
        system, service, sim = make_chaos_service(small_session)
        announce_all(system, service)
        service.withdraw(2)
        sim.run()
        service._detect()  # a sweep right after the withdrawal applied
        assert service.detected_failures == 0

    def test_rejoin_clears_the_withdrawn_latch(self, small_session):
        """A site that left and rejoins is withdrawable again."""
        system, service, sim = make_chaos_service(small_session)
        announce_all(system, service)
        service.withdraw(1)
        sim.run()
        service.advertise(system.rps[1].advertisement())
        sim.run()
        assert system.server.is_registered(1)
        service.withdraw(1)
        sim.run()
        assert not system.server.is_registered(1)
        assert service.duplicate_withdraws == 0


class TestRetransmission:
    def test_lost_reports_are_retransmitted(self, small_session):
        dropped: list[str] = []

        def drop_first_attempt(kind, attempt, args):
            if kind in ("advertise", "subscribe") and attempt == 0:
                dropped.append(kind)
                return True
            return False

        system, service, sim = make_chaos_service(
            small_session,
            retransmit_timeout_ms=20.0,
            drop=drop_first_attempt,
        )
        announce_all(system, service)
        sim.run()
        assert len(dropped) == 8  # 4 sites x {advertise, subscribe}
        assert service.retransmits == 8
        assert service.retransmit_giveups == 0
        assert sorted(system.server.registered_sites()) == [0, 1, 2, 3]
        assert service.rounds and service.rounds[-1].converged

    def test_ack_stops_the_retransmit_loop(self, small_session):
        system, service, sim = make_chaos_service(
            small_session, retransmit_timeout_ms=20.0
        )
        announce_all(system, service)
        sim.run()
        # Every report was acked on first delivery: no retransmits, and
        # no pending state survives the drain.
        assert service.retransmits == 0
        assert service.armed_retransmit_state == 0

    def test_give_up_bounds_unreachable_destinations(self, small_session):
        def drop_directives(kind, attempt, args):
            return kind == "directive"

        system, service, sim = make_chaos_service(
            small_session,
            retransmit_timeout_ms=20.0,
            drop=drop_directives,
        )
        announce_all(system, service)
        sim.run()  # terminating at all proves the backoff chain is capped
        # Exactly one give-up per unreachable destination — never more.
        assert service.retransmit_giveups == 4
        assert service.retransmits == 4 * MAX_RETRANSMITS
        # The round settled by giving the sites up, not by acks.
        round_ = service.rounds[-1]
        assert round_.converged
        assert round_.acked == {}
        # ...and the give-ups disarmed everything: no pending entry or
        # timer survives the drain.
        assert service.armed_retransmit_state == 0

    def test_unreachable_report_destination_gives_up_once(
        self, small_session
    ):
        """The report direction of the same bound: the server never acks
        one site's reports, so each report retries to the cap, settles,
        and is counted given-up exactly once."""

        def drop_site2_acks(kind, attempt, args):
            return kind == "control-ack" and args[0].site == 2

        system, service, sim = make_chaos_service(
            small_session,
            retransmit_timeout_ms=20.0,
            drop=drop_site2_acks,
        )
        announce_all(system, service)
        sim.run()
        # advertise + subscribe from site 2, nothing else.
        assert service.retransmit_giveups == 2
        assert service.retransmits == 2 * MAX_RETRANSMITS
        assert service.armed_retransmit_state == 0
        # The reports themselves arrived (only the acks died), so the
        # membership is intact and the round converged.
        assert sorted(system.server.registered_sites()) == [0, 1, 2, 3]
        assert service.rounds[-1].converged


class TestRetransmitTimerHygiene:
    """A departed site's pending report must never fire a ghost
    retransmit after its queue entry is gone."""

    def drop_site2_report_acks(self, kind, attempt, args):
        return (
            kind == "control-ack"
            and args[0].site == 2
            and args[0].kind in ("advertise", "subscribe")
        )

    def test_withdraw_cancels_pending_report_timers(self, small_session):
        system, service, sim = make_chaos_service(
            small_session,
            retransmit_timeout_ms=20.0,
            drop=self.drop_site2_report_acks,
        )
        announce_all(system, service)
        # The site leaves while its unacked reports' timers are armed
        # (the first retransmit would fire at ~20ms).
        sim.schedule_at(5.0, lambda: service.withdraw(2))
        sim.run()
        # No ghost: the withdrawal cancelled both pending reports before
        # their timers could fire a single retransmit.
        assert service.retransmits == 0
        assert service.retransmit_giveups == 0
        assert service.armed_retransmit_state == 0
        assert not system.server.is_registered(2)

    def test_fail_site_cancels_pending_report_timers(self, small_session):
        system, service, sim = make_chaos_service(
            small_session,
            retransmit_timeout_ms=20.0,
            drop=self.drop_site2_report_acks,
        )
        announce_all(system, service)
        sim.schedule_at(5.0, lambda: service.fail_site(2))
        sim.run()
        assert service.retransmits == 0
        assert service.retransmit_giveups == 0
        assert service.armed_retransmit_state == 0
        assert not system.server.is_registered(2)

    def test_withdraws_own_report_stays_reliable(self, small_session):
        """Cancelling the departing site's pending reports must not eat
        the withdraw's *own* reliable delivery."""
        dropped = []

        def drop_first_withdraw_ack(kind, attempt, args):
            if (
                kind == "control-ack"
                and args[0].kind == "withdraw"
                and not dropped
            ):
                dropped.append(args[0])
                return True
            return False

        system, service, sim = make_chaos_service(
            small_session,
            retransmit_timeout_ms=20.0,
            drop=drop_first_withdraw_ack,
        )
        announce_all(system, service)
        sim.run()
        service.withdraw(2)
        sim.run()
        # The lost ack forced exactly one retransmit of the withdraw —
        # its tracking survived the site's own cleanup.
        assert dropped
        assert service.retransmits == 1
        assert service.armed_retransmit_state == 0
        assert not system.server.is_registered(2)

    def test_duplicate_directive_copies_are_idempotent(self, small_session):
        system, service, sim = make_chaos_service(
            small_session,
            faults=FaultConfig(duplicate_rate=1.0),
            retransmit_timeout_ms=20.0,
        )
        announce_all(system, service)
        sim.run()
        assert service.link.duplicated > 0
        assert service.duplicate_directives > 0
        # Every site holds the final epoch exactly once.
        epochs = {rp.epoch for rp in system.rps.values()}
        assert epochs == {service.rounds[-1].epoch}
        for round_ in service.rounds:
            assert round_._install_finished


class TestHeartbeatDetection:
    def test_silent_site_detected_within_bound(self, small_session):
        system, service, sim = make_chaos_service(
            small_session, heartbeat_ms=10.0, miss_threshold=3
        )
        announce_all(system, service)
        sim.schedule_at(55.0, lambda: service.fail_site(2))
        sim.run(until_ms=200.0)
        service.quiesce()
        sim.run()
        assert service.detected_failures == 1
        assert service.false_suspicions == 0
        assert not system.server.is_registered(2)
        # Silence-to-withdrawal within miss_threshold beats + one sweep.
        assert len(service.detection_latencies) == 1
        assert service.detection_latencies[0] <= 3 * 10.0 + 10.0

    def test_live_sites_never_suspected_on_clean_links(self, small_session):
        system, service, sim = make_chaos_service(
            small_session, heartbeat_ms=10.0, miss_threshold=3
        )
        announce_all(system, service)
        sim.run(until_ms=300.0)
        service.quiesce()
        sim.run()
        assert service.detected_failures == 0
        assert sorted(system.server.registered_sites()) == [0, 1, 2, 3]
        assert service.heartbeats_sent > 0

    def test_fail_site_without_heartbeats_degrades_to_withdraw(
        self, small_session
    ):
        system, service, sim = make_chaos_service(small_session)
        announce_all(system, service)
        sim.run()
        message = service.fail_site(2)
        sim.run()
        assert isinstance(message, Withdraw)
        assert not system.server.is_registered(2)

    def test_fail_site_with_heartbeats_sends_nothing(self, small_session):
        system, service, sim = make_chaos_service(
            small_session, heartbeat_ms=10.0
        )
        announce_all(system, service)
        sim.run(until_ms=30.0)
        sent_before = service.link.sent
        assert service.fail_site(2) is None
        assert service.link.sent == sent_before  # silence, not a message

    def test_zombie_site_readmitted_after_partition_heals(
        self, small_session
    ):
        """A partitioned site is falsely suspected; once the window
        heals, its heartbeat provokes a rejoin and it re-admits itself
        as a fresh join."""
        system, service, sim = make_chaos_service(
            small_session,
            faults=FaultConfig(
                partitions=(
                    PartitionWindow(site=1, start_ms=30.0, end_ms=100.0),
                )
            ),
            heartbeat_ms=10.0,
            miss_threshold=3,
        )
        announce_all(system, service)
        sim.run(until_ms=200.0)
        service.quiesce()
        sim.run()
        assert service.false_suspicions >= 1
        assert service.rejoin_requests >= 1
        assert service.readmissions >= 1
        # The zombie round-trip healed: everyone is registered again.
        assert sorted(system.server.registered_sites()) == [0, 1, 2, 3]
        assert service.detection_latencies == []  # no *real* failure

    def test_quiesce_terminates_periodic_work(self, small_session):
        system, service, sim = make_chaos_service(
            small_session, heartbeat_ms=10.0
        )
        announce_all(system, service)
        sim.run(until_ms=50.0)
        service.quiesce()
        sim.run()  # would never return if beats kept rearming
        assert not service._timers
