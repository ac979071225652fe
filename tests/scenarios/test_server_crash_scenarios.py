"""Acceptance suite for the server-crash scenario family.

The headline guarantee: a membership-server crash is *survivable soft
state*.  After recovery the reconstructed registrations must hash
bit-identically to a never-crashed reference run — possible because
chaos draws from its own RNG stream, so killing the server perturbs
neither the membership schedule nor the workload, only the path by
which the directory re-learns it.  Riding along: nothing a site
reported during the outage may be lost (zero parked reports at drain),
and every strict invariant the lossless chaos family pins keeps
holding through the crash.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioRuntime

CRASH_SCENARIOS = (
    "server-crash-flash-crowd",
    "server-restart-churn",
    "server-crash-partition-overlap",
)
SEEDS = (7, 23)


def run_runtime(spec, strict: bool = False) -> ScenarioRuntime:
    runtime = ScenarioRuntime(spec, strict=strict)
    runtime.run()
    return runtime


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CRASH_SCENARIOS)
class TestCrashFamily:
    def test_strict_audit_survives_the_crash(self, name, seed):
        runtime = run_runtime(get_scenario(name, sites=8, seed=seed), strict=True)
        report = runtime.report
        assert report.ok
        assert report.server_recovery
        assert report.control.server_crashes >= 1
        assert report.control.server_recoveries == report.control.server_crashes
        assert report.audit.events_audited == report.rounds

    def test_no_membership_change_is_lost(self, name, seed):
        report = run_runtime(get_scenario(name, sites=8, seed=seed)).report
        assert report.control.reports_parked > 0  # the outage actually bit
        assert report.control.reports_replayed == report.control.reports_parked
        assert report.unrecovered_reports == 0
        assert report.unrecovered_suspicions == 0

    def test_soft_state_reconverges_to_never_crashed_reference(
        self, name, seed
    ):
        """The tentpole acceptance pin: post-recovery registrations are
        bit-identical to a run where the server never died."""
        spec = get_scenario(name, sites=8, seed=seed)
        crashed = run_runtime(spec)
        reference = run_runtime(
            replace(spec, server_outages=(), checkpoint_interval_ms=0.0)
        )
        assert crashed.report.control.server_crashes >= 1
        assert reference.report.control.server_crashes == 0
        assert (
            crashed.server.soft_state_digest()
            == reference.server.soft_state_digest()
        )

    def test_recovery_latency_is_measured_and_bounded(self, name, seed):
        spec = get_scenario(name, sites=8, seed=seed)
        report = run_runtime(spec).report
        assert report.mean_recovery_ms > 0.0
        assert report.mean_recovery_ms <= report.max_recovery_ms
        assert report.max_recovery_ms < spec.duration_ms

    def test_summary_reports_the_recovery_line(self, name, seed):
        summary = run_runtime(get_scenario(name, sites=8, seed=seed)).report.summary()
        assert "server recovery:" in summary
        assert "0 unrecovered" in summary


class TestScenarioShapes:
    def test_flash_crowd_crash_refreshes_every_live_site(self):
        """Cold restart mid-join-burst: every live site replays its
        advertise/subscribe pair exactly once for the new incarnation."""
        runtime = run_runtime(
            get_scenario("server-crash-flash-crowd", sites=8, seed=7)
        )
        report = runtime.report
        assert report.control.server_crashes == 1
        assert report.control.refresh_replays == len(runtime.service.live_sites)
        assert report.control.checkpoint_restores == 0  # no checkpointing: cold

    def test_restart_churn_restores_warm_from_checkpoints(self):
        report = run_runtime(
            get_scenario("server-restart-churn", sites=8, seed=7)
        ).report
        assert report.control.server_crashes == 2
        assert report.control.checkpoints_taken >= 1
        assert report.control.checkpoint_restores == report.control.server_crashes

    def test_partition_overlap_still_reconverges(self):
        """The outage sits inside a partition window: the cut-off site
        must survive both the cut and the cold restart."""
        report = run_runtime(
            get_scenario("server-crash-partition-overlap", sites=8, seed=7),
            strict=True,
        ).report
        assert report.ok
        assert report.unrecovered_suspicions == 0
        assert report.unrecovered_reports == 0

    def test_recovery_counters_replay_bit_identically(self):
        """The chaos determinism pin, extended to the recovery fields:
        crash scheduling, parking, replay and checkpointing all draw
        from seeded streams, so a replayed run matches counter for
        counter."""
        spec = get_scenario("server-restart-churn", sites=8, seed=7)
        first, second = run_runtime(spec).report, run_runtime(spec).report
        # Every count at once: crashes, recoveries, parked reports, ...
        assert first.control == second.control
        for attr in ("mean_recovery_ms", "max_recovery_ms", "unrecovered_reports"):
            assert getattr(first, attr) == getattr(second, attr), attr


class TestPhiVersusStatic:
    """The φ-accrual acceptance pins, on the rolling-failure scenario."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_zero_false_suspicions_at_twenty_percent_loss(self, seed):
        spec = replace(
            get_scenario("heartbeat-rolling-failure", sites=8, seed=seed),
            phi_threshold=8.0,
        )
        assert spec.loss_rate == 0.2
        report = run_runtime(spec, strict=True).report
        assert report.ok
        assert report.control.detected_failures > 0
        assert report.control.false_suspicions == 0
        assert report.unrecovered_suspicions == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_quiet_link_detects_no_later_than_static(self, seed):
        quiet = replace(
            get_scenario("heartbeat-rolling-failure", sites=8, seed=seed),
            loss_rate=0.0,
        )
        static = run_runtime(quiet).report
        phi = run_runtime(replace(quiet, phi_threshold=8.0)).report
        assert static.control.detected_failures > 0
        assert phi.control.detected_failures > 0
        assert phi.mean_detection_ms <= static.mean_detection_ms
