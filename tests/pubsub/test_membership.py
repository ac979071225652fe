"""Tests for the membership server."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.errors import ConfigurationError, ProtocolError
from repro.core.incremental import churn_rate, overlay_cost
from repro.core.randomized import RandomJoinBuilder
from repro.pubsub.membership import MembershipServer
from repro.pubsub.messages import Advertisement, SiteSubscription
from repro.session.streams import StreamId
from repro.util.rng import RngStream
from tests.reference_paths import streams_received_by, use_reference_path


@pytest.fixture
def server(small_session) -> MembershipServer:
    return MembershipServer(
        session=small_session,
        builder=RandomJoinBuilder(),
        latency_bound_ms=150.0,
    )


def advertise_all(server, session) -> None:
    for site in session.sites:
        server.register_advertisement(
            Advertisement(site=site.index, streams=tuple(site.stream_ids))
        )


def assert_availability_index_exact(server) -> None:
    """The maintained availability index equals a full re-derivation."""
    assert server._available == Counter(
        stream for streams in server._advertised.values() for stream in streams
    )


class TestRegistration:
    def test_unknown_site_rejected(self, server):
        with pytest.raises(ProtocolError):
            server.register_subscription(SiteSubscription(site=99, streams=()))

    def test_unknown_stream_rejected(self, server):
        with pytest.raises(ProtocolError):
            server.register_advertisement(
                Advertisement(site=0, streams=(StreamId(0, 999),))
            )

    def test_unadvertised_subscriptions_dropped(self, server, small_session):
        # Only site 1 advertises; subscriptions to site 2 streams vanish.
        server.register_advertisement(
            Advertisement(
                site=1, streams=tuple(small_session.site(1).stream_ids)
            )
        )
        server.register_subscription(
            SiteSubscription(
                site=0, streams=(StreamId(1, 0), StreamId(2, 0))
            )
        )
        workload = server.global_workload()
        assert workload.streams_of(0) == (StreamId(1, 0),)


class TestDirtyTrackedRegistration:
    """Unchanged re-registrations must be skipped, not re-applied."""

    def test_identical_advertisement_skipped(self, server, small_session):
        advertisement = Advertisement(
            site=1, streams=tuple(small_session.site(1).stream_ids)
        )
        assert server.register_advertisement(advertisement) is True
        assert server.register_advertisement(advertisement) is False
        assert server.registrations_applied == 1
        assert server.registrations_skipped == 1

    def test_identical_subscription_skipped(self, server):
        subscription = SiteSubscription(site=0, streams=(StreamId(1, 0),))
        assert server.register_subscription(subscription) is True
        assert server.register_subscription(subscription) is False
        assert server.registrations_applied == 1
        assert server.registrations_skipped == 1

    def test_changed_subscription_applies(self, server):
        server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(1, 0),))
        )
        changed = server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(2, 0),))
        )
        assert changed is True
        assert server.registrations_applied == 2
        assert server.registrations_skipped == 0

    def test_withdraw_makes_reregistration_dirty(self, server, small_session):
        advertisement = Advertisement(
            site=1, streams=tuple(small_session.site(1).stream_ids)
        )
        server.register_advertisement(advertisement)
        server.withdraw_site(1)
        assert_availability_index_exact(server)
        assert server.register_advertisement(advertisement) is True
        assert server.registrations_applied == 2
        assert_availability_index_exact(server)

    def test_unchanged_rounds_apply_nothing(self, small_session, rng):
        """System-level regression: round 2 with static state registers 0."""
        from repro.core.randomized import RandomJoinBuilder
        from repro.pubsub.system import PubSubSystem

        system = PubSubSystem(
            session=small_session, builder=RandomJoinBuilder()
        )
        streams = list(small_session.site(1).stream_ids)[:2]
        system.subscribe_display(0, "disp-0-0", streams)
        system.run_control_round(rng.spawn("r1"))
        applied_after_first = system.server.registrations_applied
        system.run_control_round(rng.spawn("r2"))
        # Every per-site report of round 2 was identical: all skipped.
        assert system.server.registrations_applied == applied_after_first
        assert (
            system.server.registrations_skipped
            == 2 * small_session.n_sites
        )

    def test_registered_sites_tracks_withdrawals(self, server, small_session):
        advertise_all(server, small_session)
        server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(1, 0),))
        )
        assert server.registered_sites() == [0, 1, 2, 3]
        server.withdraw_site(2)
        assert server.registered_sites() == [0, 1, 3]
        assert_availability_index_exact(server)


class TestWithdrawRacingPendingRound:
    """Satellite: withdraw lands after registration, before the build."""

    def test_forest_excludes_withdrawn_site_and_audits_clean(
        self, server, small_session, rng
    ):
        from repro.sim.invariants import InvariantAuditor

        advertise_all(server, small_session)
        for site in range(small_session.n_sites):
            other = (site + 1) % small_session.n_sites
            server.register_subscription(
                SiteSubscription(
                    site=site,
                    streams=tuple(
                        sorted(small_session.site(other).stream_ids)
                    )[:2],
                )
            )
        # The "round" is pending: registrations done, build not yet run.
        server.withdraw_site(2)
        directive = server.build_overlay(rng)
        assert all(
            2 not in (parent, child) for _, parent, child in directive.edges
        )
        # Nothing is delivered *to* the withdrawn site either, and no
        # satisfied request names it.
        assert streams_received_by(directive, 2) == set()
        result = server.last_result
        assert all(request.subscriber != 2 for request in result.satisfied)
        auditor = InvariantAuditor(strict=True)
        auditor.audit_build(result, event="withdraw-race")
        assert auditor.report().ok


class TestDeltaDirectives:
    """Repair-served rounds emit edge deltas against the previous epoch."""

    def make_server(self, session) -> MembershipServer:
        return MembershipServer(
            session=session,
            builder=RandomJoinBuilder(),
            latency_bound_ms=150.0,
            rebuild_policy="incremental",
        )

    def subscribe(self, server, session, sites) -> None:
        advertise_all(server, session)
        for site in sites:
            other = (site + 1) % session.n_sites
            server.register_subscription(
                SiteSubscription(
                    site=site,
                    streams=tuple(sorted(session.site(other).stream_ids))[:2],
                )
            )

    def test_first_round_is_full(self, small_session):
        server = self.make_server(small_session)
        self.subscribe(server, small_session, sites=(0, 1))
        directive = server.build_overlay(RngStream(5, label="t").spawn("r1"))
        assert not directive.is_delta

    def test_repair_round_emits_delta(self, small_session):
        server = self.make_server(small_session)
        self.subscribe(server, small_session, sites=(0, 1, 2))
        rng = RngStream(5, label="t")
        first = server.build_overlay(rng.spawn("r1"))
        server.withdraw_site(2)
        second = server.build_overlay(rng.spawn("r2"))
        assert server.last_mode == "repair"
        assert second.is_delta and second.base_epoch == first.epoch
        # The delta reconstructs the full set from the previous epoch.
        patched = (set(first.edges) - set(second.removed)) | set(second.added)
        assert patched == set(second.edges)
        # And it is genuinely smaller than re-shipping the forest.
        assert second.payload_edges() < len(first.edges) + len(second.edges)

    def test_repair_round_fields_equal_the_whole_forest_derivation(
        self, small_session
    ):
        """Edges, delta and disruption are taken from the trees the repair
        rewrote; they must be what sorting and diffing both whole forests
        and walking every common request gives."""
        server = self.make_server(small_session)
        n = small_session.n_sites
        self.subscribe(server, small_session, sites=range(n))
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r0"))
        for round_no, site in enumerate((2, 0, 3), start=1):
            previous = server.last_result
            if round_no == 2:
                server.withdraw_site(site)
            else:
                other = (site + 2) % n
                server.register_subscription(
                    SiteSubscription(
                        site=site,
                        streams=tuple(sorted(small_session.site(other).stream_ids))[:3],
                    )
                )
            directive = server.build_overlay(rng.spawn(f"r{round_no}"))
            assert server.last_mode == "repair"
            result = server.last_result
            old, new = set(previous.forest.edges()), set(result.forest.edges())
            assert old != new
            assert directive.edges == tuple(sorted(new))
            assert directive.added == tuple(sorted(new - old))
            assert directive.removed == tuple(sorted(old - new))
            assert server.last_disruption == churn_rate(previous, result)
            assert server.checkpoint().edges == directive.edges

    def test_rebuild_round_is_full(self, small_session):
        """An 'always' server never emits deltas even across rounds."""
        server = MembershipServer(
            session=small_session,
            builder=RandomJoinBuilder(),
            latency_bound_ms=150.0,
            rebuild_policy="always",
        )
        self.subscribe(server, small_session, sites=(0, 1))
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        second = server.build_overlay(rng.spawn("r2"))
        assert server.last_mode == "rebuild"
        assert not second.is_delta


class TestBuildOverlay:
    def test_directive_epoch_increments(self, server, small_session, rng):
        advertise_all(server, small_session)
        server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(1, 0),))
        )
        d1 = server.build_overlay(rng.spawn("1"))
        d2 = server.build_overlay(rng.spawn("2"))
        assert (d1.epoch, d2.epoch) == (1, 2)

    def test_edges_cover_satisfied_requests(self, server, small_session, rng):
        advertise_all(server, small_session)
        server.register_subscription(
            SiteSubscription(
                site=0, streams=(StreamId(1, 0), StreamId(2, 0))
            )
        )
        directive = server.build_overlay(rng)
        received = streams_received_by(directive, 0)
        assert received == {StreamId(1, 0), StreamId(2, 0)}
        assert server.last_result is not None
        assert not server.last_result.rejected


class TestRebuildPolicy:
    def make_server(self, session, policy: str) -> MembershipServer:
        return MembershipServer(
            session=session,
            builder=RandomJoinBuilder(),
            latency_bound_ms=150.0,
            rebuild_policy=policy,
        )

    def subscribe(self, server, session, sites=(0, 1)) -> None:
        advertise_all(server, session)
        for site in sites:
            other = (site + 1) % session.n_sites
            server.register_subscription(
                SiteSubscription(
                    site=site,
                    streams=tuple(sorted(session.site(other).stream_ids))[:2],
                )
            )

    def test_unknown_policy_rejected(self, small_session):
        with pytest.raises(ConfigurationError):
            self.make_server(small_session, "sometimes")

    def test_negative_drift_budget_rejected(self, small_session):
        with pytest.raises(ConfigurationError):
            MembershipServer(
                session=small_session,
                builder=RandomJoinBuilder(),
                rebuild_policy="hybrid",
                drift_budget=-0.5,
            )

    def test_always_policy_only_rebuilds(self, small_session):
        server = self.make_server(small_session, "always")
        self.subscribe(server, small_session)
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        server.build_overlay(rng.spawn("r2"))
        assert (server.repairs, server.rebuilds) == (0, 2)
        assert server.last_mode == "rebuild"

    def test_incremental_repairs_after_bootstrap(self, small_session):
        server = self.make_server(small_session, "incremental")
        self.subscribe(server, small_session)
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        assert server.last_mode == "rebuild"  # nothing to repair yet
        assert server.last_disruption is None
        server.build_overlay(rng.spawn("r2"))
        assert server.last_mode == "repair"
        assert server.last_disruption == 0.0  # unchanged workload
        assert (server.repairs, server.rebuilds) == (1, 1)

    def test_withdrawn_site_is_repaired_out(self, small_session):
        server = self.make_server(small_session, "incremental")
        self.subscribe(server, small_session, sites=(0, 1, 2))
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        server.withdraw_site(2)
        directive = server.build_overlay(rng.spawn("r2"))
        assert server.last_mode == "repair"
        assert all(
            2 not in (parent, child)
            for _, parent, child in directive.edges
        )

    def test_hybrid_stays_within_drift_budget(self, small_session):
        """The adopted forest costs at most (1+budget)x the exact scratch
        solution the server itself computed (reconstructed via the
        label-derived RNG stream)."""
        server = self.make_server(small_session, "hybrid")
        self.subscribe(server, small_session, sites=(0, 1, 2, 3))
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        server.withdraw_site(3)
        server.build_overlay(rng.spawn("r2"))
        adopted = server.last_result
        scratch = server.builder.build(
            adopted.problem, RngStream(5, label="t").spawn("r2").spawn("scratch")
        )
        assert overlay_cost(adopted) <= overlay_cost(scratch) * (
            1.0 + server.drift_budget
        ) + 1e-9
        assert len(adopted.rejected) <= len(scratch.rejected)


class TestProblemAssembly:
    def make_server(self, session, policy: str, assembly=None) -> MembershipServer:
        server = MembershipServer(
            session=session,
            builder=RandomJoinBuilder(),
            latency_bound_ms=150.0,
            rebuild_policy=policy,
        )
        return use_reference_path(server, assembly=assembly)

    def subscribe(self, server, session, sites=(0, 1)) -> None:
        advertise_all(server, session)
        for site in sites:
            other = (site + 1) % session.n_sites
            server.register_subscription(
                SiteSubscription(
                    site=site,
                    streams=tuple(sorted(session.site(other).stream_ids))[:2],
                )
            )

    def test_auto_under_always_stays_scratch(self, small_session):
        server = self.make_server(small_session, "always")
        self.subscribe(server, small_session)
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        server.build_overlay(rng.spawn("r2"))
        assert (server.assemblies_diffed, server.assemblies_scratch) == (0, 2)
        assert server.last_assembly == "scratch"

    def test_auto_under_incremental_diffs_after_bootstrap(self, small_session):
        server = self.make_server(small_session, "incremental")
        self.subscribe(server, small_session)
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        assert server.last_assembly == "scratch"  # no previous problem
        server.build_overlay(rng.spawn("r2"))
        assert server.last_assembly == "diffed"
        assert (server.assemblies_diffed, server.assemblies_scratch) == (1, 1)

    @pytest.mark.parametrize(
        "policy, expected",
        [
            ("always", ["scratch"] * 5),
            ("incremental", ["scratch", "diffed", "diffed", "scratch", "diffed"]),
            ("hybrid", ["scratch", "diffed", "diffed", "scratch", "diffed"]),
        ],
    )
    def test_assembly_derived_from_policy_and_history(
        self, small_session, policy, expected
    ):
        """Scratch under ``always`` or with no previous problem, else diffed."""
        server = self.make_server(small_session, policy)
        self.subscribe(server, small_session)
        rng = RngStream(5, label="t")
        seen = []
        for index in range(5):
            if index == 3:
                # A warm restart brings the registrations back but not
                # the carried problem: the next round re-anchors.
                workload = server.global_workload()
                snapshot = server.checkpoint()
                server.crash()
                assert_availability_index_exact(server)
                server.restore(snapshot)
                assert_availability_index_exact(server)
                assert server.global_workload() == workload
            server.build_overlay(rng.spawn(f"r{index}"))
            seen.append(server.last_assembly)
        assert seen == expected
        assert server.assemblies_scratch == expected.count("scratch")
        assert server.assemblies_diffed == expected.count("diffed")

    def test_evolved_rounds_share_dense_matrix(self, small_session):
        server = self.make_server(small_session, "incremental")
        self.subscribe(server, small_session)
        rng = RngStream(5, label="t")
        server.build_overlay(rng.spawn("r1"))
        first = server.last_result.problem
        server.register_subscription(
            SiteSubscription(
                site=2,
                streams=tuple(sorted(small_session.site(0).stream_ids))[:1],
            )
        )
        server.build_overlay(rng.spawn("r2"))
        second = server.last_result.problem
        assert second is not first
        assert second.dense_cost_matrix() is first.dense_cost_matrix()

    def test_forced_diffed_matches_scratch_directives(self, small_session):
        """Same registrations, both assemblies: identical directives."""
        rounds = []
        for assembly in ("diffed", "scratch"):
            server = self.make_server(small_session, "incremental", assembly)
            self.subscribe(server, small_session)
            rng = RngStream(5, label="t")
            directives = [server.build_overlay(rng.spawn("r1"))]
            server.withdraw_site(1)
            directives.append(server.build_overlay(rng.spawn("r2")))
            self.subscribe(server, small_session, sites=(1, 3))
            directives.append(server.build_overlay(rng.spawn("r3")))
            rounds.append(directives)
        assert rounds[0] == rounds[1]


class TestDirtyDeltaAssembly:
    """Edge cases of the O(churn) dirty-derived problem delta.

    The digest matrix in ``tests/scenarios/test_delta_digests.py`` pins
    dirty- vs scan-derived assembly end to end; these tests target the
    derivation's corner states directly: withdrawals racing dirty marks,
    dirty-but-unchanged streams, and a round where every group churns.
    """

    @pytest.fixture
    def diffed_server(self, small_session) -> MembershipServer:
        return MembershipServer(
            session=small_session,
            builder=RandomJoinBuilder(),
            latency_bound_ms=150.0,
            rebuild_policy="incremental",
        )

    @staticmethod
    def scan_groups(server: MembershipServer) -> list:
        """The reference group list, re-derived by the full scan."""
        from repro.core.problem import ForestProblem

        return ForestProblem.from_workload(
            server.session, server.global_workload(), server.latency_bound_ms
        ).groups

    def test_withdraw_while_dirty(self, diffed_server, small_session, rng):
        server = diffed_server
        advertise_all(server, small_session)
        server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(1, 0), StreamId(2, 0)))
        )
        server.register_subscription(
            SiteSubscription(site=3, streams=(StreamId(2, 0),))
        )
        server.build_overlay(rng.spawn("r1"))
        # Dirty a group of site 2's, then withdraw the advertiser before
        # the next assembly: the group must come out *removed*, not
        # changed, and site 2's other groups must vanish with it.
        server.register_subscription(
            SiteSubscription(site=3, streams=(StreamId(2, 0), StreamId(2, 1)))
        )
        server.withdraw_site(2)
        server.build_overlay(rng.spawn("r2"))
        assert server.last_assembly == "diffed"
        problem = server.last_result.problem
        assert all(group.stream.site != 2 for group in problem.groups)
        assert problem.groups == self.scan_groups(server)

    def test_reregister_identical_yields_empty_delta(
        self, diffed_server, small_session, rng
    ):
        server = diffed_server
        advertise_all(server, small_session)
        server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(1, 0),))
        )
        server.build_overlay(rng.spawn("r1"))
        first = server.last_result.problem
        # Identical re-registration is dirty-skipped outright ...
        assert (
            server.register_subscription(
                SiteSubscription(site=0, streams=(StreamId(1, 0),))
            )
            is False
        )
        # ... while a withdraw-then-restore race marks streams dirty
        # without changing any effective group: the delta must come out
        # empty and the next problem share the previous group objects.
        server.withdraw_site(0)
        server.register_advertisement(
            Advertisement(
                site=0, streams=tuple(small_session.site(0).stream_ids)
            )
        )
        server.register_subscription(
            SiteSubscription(site=0, streams=(StreamId(1, 0),))
        )
        server.build_overlay(rng.spawn("r2"))
        second = server.last_result.problem
        assert server.last_assembly == "diffed"
        assert second.groups == first.groups
        assert all(a is b for a, b in zip(second.groups, first.groups))

    def test_full_churn_round_matches_scan(
        self, diffed_server, small_session, rng
    ):
        server = diffed_server
        advertise_all(server, small_session)
        n = small_session.n_sites
        for site in range(n):
            others = [s for s in range(n) if s != site]
            server.register_subscription(
                SiteSubscription(site=site, streams=(StreamId(others[0], 0),))
            )
        server.build_overlay(rng.spawn("r1"))
        # Every site rewires at once: the delta carries removals,
        # additions and changes in the same round, touching every group.
        for site in range(n):
            others = [s for s in range(n) if s != site]
            server.register_subscription(
                SiteSubscription(
                    site=site,
                    streams=(
                        StreamId(others[1], 0),
                        StreamId(others[2], 1),
                    ),
                )
            )
        server.build_overlay(rng.spawn("r2"))
        assert server.last_assembly == "diffed"
        problem = server.last_result.problem
        scan = self.scan_groups(server)
        assert problem.groups == scan
        assert problem.total_requests() == sum(
            len(group.subscribers) for group in scan
        )

    def test_invalid_subscriptions_rejected_at_registration(
        self, diffed_server
    ):
        from repro.errors import SubscriptionError

        # The dirty path never materializes a workload, so the payload
        # validation the workload constructor used to provide must hold
        # at registration time.
        with pytest.raises(SubscriptionError):
            diffed_server.register_subscription(
                SiteSubscription(site=1, streams=(StreamId(1, 0),))
            )
        with pytest.raises(SubscriptionError):
            diffed_server.register_subscription(
                SiteSubscription(site=1, streams=(StreamId(7, 0),))
            )
