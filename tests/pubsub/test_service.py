"""Tests for the event-driven membership service."""

from __future__ import annotations

import pytest

from repro.core.randomized import RandomJoinBuilder
from repro.pubsub.messages import SiteSubscription
from repro.pubsub.service import MembershipService
from repro.pubsub.system import PubSubSystem
from repro.session.streams import StreamId
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantAuditor
from repro.util.rng import RngStream
from tests.forced_links import skew_delays


def make_service(
    session,
    control_delay_ms: float = 0.0,
    debounce_ms: float = 0.0,
    site_delays: dict[int, float] | None = None,
    auditor: InvariantAuditor | None = None,
    rebuild_policy: str = "always",
) -> tuple[PubSubSystem, MembershipService, Simulator]:
    system = PubSubSystem(
        session=session,
        builder=RandomJoinBuilder(),
        rebuild_policy=rebuild_policy,
    )
    sim = Simulator()
    service = MembershipService(
        sim=sim,
        server=system.server,
        rps=system.rps,
        build_rng=RngStream(5, label="service-test"),
        control_delay_ms=control_delay_ms,
        debounce_ms=debounce_ms,
        auditor=auditor,
    )
    if site_delays is not None:
        skew_delays(service.link, site_delays)
    return system, service, sim


def announce_all(system: PubSubSystem, service: MembershipService) -> None:
    for site, rp in sorted(system.rps.items()):
        service.advertise(rp.advertisement())
        service.subscribe(rp.aggregate_subscription())


class TestZeroDelayRound:
    def test_round_builds_and_installs(self, small_session):
        system, service, sim = make_service(small_session)
        system.subscribe_display(
            0, "disp-0-0", list(small_session.site(1).stream_ids)[:2]
        )
        announce_all(system, service)
        sim.run()
        assert len(service.rounds) == 1
        round_ = service.rounds[0]
        assert round_.epoch == 1
        assert round_.installed == (0, 1, 2, 3)
        assert round_.converged
        assert round_.convergence_ms == 0.0
        for rp in system.rps.values():
            assert rp.epoch == 1
        assert system.rps[0].receiving_set() == set(
            list(small_session.site(1).stream_ids)[:2]
        )

    def test_acks_recorded_per_site(self, small_session):
        system, service, sim = make_service(small_session)
        announce_all(system, service)
        sim.run()
        assert sorted(service.rounds[0].acked) == [0, 1, 2, 3]

    def test_empty_session_round_converges_at_build(self, small_session):
        _, service, sim = make_service(small_session, debounce_ms=4.0)
        service.mark_dirty()
        sim.run()
        (round_,) = service.rounds
        assert round_.installed == ()
        assert round_.directive.edges == ()
        assert round_.convergence_ms == 4.0

    def test_round_hook_fires_once_per_round(self, small_session):
        system, service, sim = make_service(small_session)
        calls: list[str] = []
        service.on_round = lambda round_: calls.append(f"round-{round_.epoch}")
        announce_all(system, service)
        sim.run()
        assert calls == ["round-1"]


class TestDebounce:
    def test_messages_inside_window_coalesce(self, small_session):
        system, service, sim = make_service(small_session, debounce_ms=10.0)
        rp0, rp1 = system.rps[0], system.rps[1]
        sim.schedule_at(0.0, lambda: service.advertise(rp0.advertisement()))
        sim.schedule_at(5.0, lambda: service.advertise(rp1.advertisement()))
        sim.run()
        assert len(service.rounds) == 1
        round_ = service.rounds[0]
        assert round_.trigger_ms == 0.0
        assert round_.built_ms == 10.0
        assert round_.coalesced == 2
        assert round_.installed == (0, 1)

    def test_message_after_window_opens_new_round(self, small_session):
        system, service, sim = make_service(small_session, debounce_ms=10.0)
        rp0, rp1 = system.rps[0], system.rps[1]
        sim.schedule_at(0.0, lambda: service.advertise(rp0.advertisement()))
        sim.schedule_at(25.0, lambda: service.advertise(rp1.advertisement()))
        sim.run()
        assert [round_.epoch for round_ in service.rounds] == [1, 2]
        assert [round_.built_ms for round_ in service.rounds] == [10.0, 35.0]

    def test_withdraw_inside_window_excludes_site(self, small_session):
        """Async variant of the withdraw-racing-a-pending-round satellite."""
        auditor = InvariantAuditor(strict=True)
        system, service, sim = make_service(
            small_session, debounce_ms=10.0, auditor=auditor
        )
        system.subscribe_display(
            0, "disp-0-0", list(small_session.site(2).stream_ids)[:2]
        )
        sim.schedule_at(0.0, lambda: announce_all(system, service))
        # Site 2 withdraws after registering, before the window closes.
        sim.schedule_at(5.0, lambda: service.withdraw(2))
        sim.run()
        (round_,) = service.rounds
        assert 2 not in round_.installed
        assert all(
            2 not in (parent, child)
            for _, parent, child in round_.directive.edges
        )
        assert auditor.report().ok

    def test_pending_build_visible(self, small_session):
        system, service, sim = make_service(small_session, debounce_ms=10.0)
        service.advertise(system.rps[0].advertisement())
        assert not service.pending_build  # message still on the link
        sim.run(until_ms=5.0)
        assert service.pending_build
        sim.run()
        assert not service.pending_build


class TestControlDelay:
    def test_convergence_is_debounce_plus_round_trip(self, small_session):
        system, service, sim = make_service(
            small_session, control_delay_ms=20.0, debounce_ms=10.0
        )
        announce_all(system, service)
        sim.run()
        (round_,) = service.rounds
        # trigger at 20 (first arrival), build at 30, install at 50, ack 70.
        assert round_.trigger_ms == 20.0
        assert round_.built_ms == 30.0
        assert round_.convergence_ms == 50.0
        assert all(time == 70.0 for time in round_.acked.values())

    @pytest.mark.parametrize("value", (-1.0, float("inf"), float("nan")))
    @pytest.mark.parametrize(
        "knob",
        (
            "control_delay_ms",
            "debounce_ms",
            "heartbeat_ms",
            "retransmit_timeout_ms",
        ),
    )
    def test_bad_millisecond_knob_rejected(self, small_session, knob, value):
        from repro.errors import ConfigurationError

        system = PubSubSystem(session=small_session, builder=RandomJoinBuilder())
        with pytest.raises(ConfigurationError, match=knob):
            MembershipService(
                sim=Simulator(),
                server=system.server,
                rps=system.rps,
                build_rng=RngStream(5, label="t"),
                **{knob: value},
            )


class TestStaleDirectives:
    def test_out_of_order_delivery_discarded(self, small_session):
        """A slow link makes epoch 1 land after epoch 2: it must be dropped."""
        delays: dict[int, float] = {}
        system, service, sim = make_service(small_session, site_delays=delays)
        announce_all(system, service)   # registrations arrive at t=0
        # Slow site 0's link after its registration but before the build
        # timer fires, so epoch 1's directive crawls (lands at t=100)...
        sim.schedule_at(0.0, lambda: delays.update({0: 100.0}))

        def speed_up_and_redirty() -> None:
            # ...and the link recovers before epoch 2 is pushed, so the
            # newer directive overtakes the older one.
            delays[0] = 1.0
            service.subscribe(
                SiteSubscription(site=1, streams=(StreamId(0, 0),))
            )

        sim.schedule_at(10.0, speed_up_and_redirty)
        sim.run()
        assert [round_.epoch for round_ in service.rounds] == [1, 2]
        assert system.rps[0].epoch == 2      # installed 2, discarded 1
        assert service.stale_directives == 1
        assert service.rounds[0].stale_sites == (0,)
        # The stale site never acks epoch 1, but the round still settles.
        assert 0 not in service.rounds[0].acked
        assert service.rounds[0].converged

    def test_stale_site_audited_at_its_own_epoch(self, small_session):
        """Auditing skips sites that legitimately moved ahead."""
        auditor = InvariantAuditor(strict=True)
        delays: dict[int, float] = {}
        system, service, sim = make_service(
            small_session, site_delays=delays, auditor=auditor
        )
        announce_all(system, service)
        sim.schedule_at(0.0, lambda: delays.update({0: 100.0}))

        def speed_up_and_redirty() -> None:
            delays[0] = 1.0
            service.subscribe(
                SiteSubscription(site=1, streams=(StreamId(0, 0),))
            )

        sim.schedule_at(10.0, speed_up_and_redirty)
        sim.run()
        report = auditor.report()
        assert report.ok
        assert report.events_audited == 2


class TestOverlapDetection:
    def test_mid_install_trigger_counts_as_overlap(self, small_session):
        system, service, sim = make_service(small_session, control_delay_ms=30.0)
        announce_all(system, service)   # round 1: build t=30, acks t=90
        sim.schedule_at(
            40.0,
            lambda: service.subscribe(
                SiteSubscription(site=1, streams=(StreamId(0, 0),))
            ),
        )
        sim.run()
        assert len(service.rounds) == 2
        assert service.overlapping_rounds() == 1

    def test_sequential_rounds_do_not_overlap(self, small_session):
        system, service, sim = make_service(small_session)
        announce_all(system, service)
        sim.schedule_at(
            50.0,
            lambda: service.subscribe(
                SiteSubscription(site=1, streams=(StreamId(0, 0),))
            ),
        )
        sim.run()
        assert len(service.rounds) == 2
        assert service.overlapping_rounds() == 0


class TestAssemblyThroughService:
    """The async plane shares the server, hence the evolved problem."""

    def test_rounds_record_assembly_mode(self, small_session):
        system, service, sim = make_service(
            small_session, rebuild_policy="incremental"
        )
        system.subscribe_display(
            0, "disp-0-0", list(small_session.site(1).stream_ids)[:2]
        )
        announce_all(system, service)
        sim.run()
        system.subscribe_display(
            0, "disp-0-0", list(small_session.site(2).stream_ids)[:2]
        )
        service.subscribe(system.rps[0].aggregate_subscription())
        sim.run()
        assert [r.assembly for r in service.rounds] == ["scratch", "diffed"]
        assert system.server.assemblies_diffed == 1
