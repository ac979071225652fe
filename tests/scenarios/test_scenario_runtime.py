"""Tests for scenario execution against the live control plane."""

from __future__ import annotations

import pytest

from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioRuntime, run_scenario
from repro.scenarios.spec import EventKind, SchedulePhase, ScenarioSpec


def tiny_spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="tiny",
        n_sites=4,
        initial_active=4,
        duration_ms=200.0,
        seed=5,
        streams_per_site=4,
        schedule=(
            SchedulePhase(EventKind.FOV_CHANGE, 0.0, 100.0, 2),
            SchedulePhase(EventKind.LEAVE, 100.0, 150.0, 1),
            SchedulePhase(EventKind.JOIN, 150.0, 190.0, 1),
        ),
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestRun:
    def test_report_shape(self):
        report = run_scenario(tiny_spec())
        # bootstrap + one round per executed event
        assert report.rounds == 1 + sum(report.events.values())
        assert report.events == {"fov-change": 2, "leave": 1, "join": 1}
        assert report.final_active == 4
        assert report.requests_total > 0
        assert report.ok
        assert report.audit is not None
        assert report.audit.events_audited == report.rounds

    def test_capacity_overrides_reach_the_session(self):
        """Small overrides are honoured as given; only ``None`` falls back
        to the paper's 20 streams / capacity 20."""
        small = ScenarioRuntime(
            tiny_spec(streams_per_site=1, capacity_base=2, capacity_jitter=0)
        ).session
        assert all(len(site.stream_ids) == 1 for site in small.sites)
        assert all(site.rp.outbound_limit == 2 for site in small.sites)
        default = ScenarioRuntime(tiny_spec(streams_per_site=None)).session
        assert all(len(site.stream_ids) == 20 for site in default.sites)

    def test_audit_disabled(self):
        report = run_scenario(tiny_spec(), audit=False)
        assert report.audit is None
        assert report.ok

    def test_leave_shrinks_active_set(self):
        spec = tiny_spec(
            schedule=(SchedulePhase(EventKind.LEAVE, 0.0, 100.0, 3),)
        )
        report = run_scenario(spec)
        assert report.final_active == 1
        assert report.events == {"leave": 3}

    def test_join_without_candidates_skipped(self):
        spec = tiny_spec(
            schedule=(SchedulePhase(EventKind.JOIN, 0.0, 100.0, 2),)
        )
        report = run_scenario(spec)
        # All four sites already active: both joins are no-ops.
        assert report.skipped_events == 2
        assert report.rounds == 1

    def test_failure_withdraws_server_side_only(self):
        spec = tiny_spec(
            schedule=(SchedulePhase(EventKind.FAIL, 0.0, 50.0, 1),)
        )
        runtime = ScenarioRuntime(spec)
        report = runtime.run()
        assert report.ok
        failed = (set(range(4)) - runtime.active).pop()
        # Abrupt failure: the RP keeps its display subscriptions...
        assert runtime.rps[failed].aggregate_subscription().streams
        # ...but the server no longer sees the site.
        workload = runtime.server.global_workload()
        assert workload.streams_of(failed) == ()

    def test_graceful_leave_clears_rp(self):
        spec = tiny_spec(
            schedule=(SchedulePhase(EventKind.LEAVE, 0.0, 50.0, 1),)
        )
        runtime = ScenarioRuntime(spec)
        runtime.run()
        left = (set(range(4)) - runtime.active).pop()
        assert runtime.rps[left].aggregate_subscription().streams == ()

    def test_departed_publisher_drops_subscriptions(self):
        """Surviving sites subscribed to a failed site's streams lose them
        via advertisement matching, not via an error."""
        spec = tiny_spec(
            schedule=(SchedulePhase(EventKind.FAIL, 0.0, 50.0, 2),)
        )
        report = run_scenario(spec)
        assert report.ok

    def test_single_site_session_runs_empty_rounds(self):
        spec = tiny_spec(
            n_sites=1,
            initial_active=1,
            schedule=(SchedulePhase(EventKind.FOV_CHANGE, 0.0, 100.0, 1),),
        )
        report = run_scenario(spec)
        assert report.ok
        assert report.requests_total == 0

    def test_rejection_ratio_bounds(self):
        report = run_scenario(get_scenario("capacity-starvation", sites=4, seed=2))
        assert 0.0 < report.rejection_ratio < 1.0
        assert report.rejected_total <= report.requests_total

    def test_summary_mentions_digest_and_events(self):
        report = run_scenario(tiny_spec())
        summary = report.summary()
        assert "digest" in summary
        assert "control" in summary
        assert "leave=1" in summary


class TestRebuildPolicy:
    def test_default_policy_always_rebuilds(self):
        report = run_scenario(tiny_spec())
        assert report.rebuild_policy == "always"
        assert report.repairs == 0
        assert report.rebuilds == report.rounds

    def test_incremental_policy_repairs_after_bootstrap(self):
        report = run_scenario(tiny_spec(rebuild_policy="incremental"))
        assert report.ok, report.summary()
        assert report.rebuild_policy == "incremental"
        assert report.repairs + report.rebuilds == report.rounds
        assert report.repairs >= 1

    def test_disruption_counts_all_but_bootstrap(self):
        report = run_scenario(tiny_spec())
        assert report.disruption_rounds == report.rounds - 1
        assert report.mean_disruption >= 0.0

    def test_summary_mentions_maintenance(self):
        report = run_scenario(tiny_spec(rebuild_policy="incremental"))
        summary = report.summary()
        assert "overlay maintenance [incremental]" in summary
        assert "mean disruption" in summary

    def test_policy_threaded_into_server(self):
        runtime = ScenarioRuntime(tiny_spec(rebuild_policy="incremental"))
        assert runtime.server.rebuild_policy == "incremental"


class TestEpochs:
    def test_epochs_monotonic_across_rejoin(self):
        """A site that fails and rejoins accepts the newer directive."""
        spec = tiny_spec(
            duration_ms=400.0,
            schedule=(
                SchedulePhase(EventKind.FAIL, 0.0, 100.0, 2),
                SchedulePhase(EventKind.JOIN, 200.0, 300.0, 2),
            ),
        )
        runtime = ScenarioRuntime(spec)
        report = runtime.run()
        assert report.ok
        assert runtime.active == set(range(4))
        epochs = {runtime.rps[s].epoch for s in runtime.active}
        assert epochs == {runtime.server.epoch}
