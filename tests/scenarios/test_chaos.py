"""Acceptance suite for the chaos scenario family.

Three pillars:

* **Determinism** — chaos is drawn from the seeded simulator RNG, so a
  lossy, jittered, partitioned run replays bit-identically per seed
  (same audit digest, same drop/retransmit/detection counters).
* **Cleanliness** — under 20% loss, jitter, duplication and partitions
  every *installed* round still satisfies the full invariant audit, and
  the membership the server acts on reconverges to the truth.
* **Transparency** — impairments the reliability layer fully absorbs
  (duplication, lost acks forcing retransmits) leave the audited
  timeline bit-identical to the unimpaired run: the overlay cannot tell
  the chaos happened.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.scenarios.library import (
    chaos_scenario_names,
    get_scenario,
    scenario_names,
)
from repro.scenarios.runtime import ScenarioRuntime
from tests.forced_links import force_drops


def run_runtime(spec, strict: bool = False) -> ScenarioRuntime:
    runtime = ScenarioRuntime(spec, strict=strict)
    runtime.run()
    return runtime


class TestRegistry:
    def test_chaos_family_names(self):
        assert chaos_scenario_names() == [
            "heartbeat-rolling-failure",
            "lossy-dissemination",
            "lossy-flash-crowd",
            "partitioned-churn",
            "server-crash-flash-crowd",
            "server-crash-partition-overlap",
            "server-restart-churn",
        ]

    def test_base_family_unpolluted(self):
        """The digest suite pins scenario_names() to the six base shapes;
        the chaos family must not leak into it."""
        assert set(scenario_names()).isdisjoint(chaos_scenario_names())
        assert len(scenario_names()) == 6

    @pytest.mark.parametrize("name", chaos_scenario_names())
    def test_chaos_specs_resolve_and_are_async(self, name):
        spec = get_scenario(name, sites=6, seed=3)
        assert spec.async_control
        assert spec.retransmit_timeout_ms > 0
        assert (
            spec.loss_rate > 0 or spec.jitter_ms > 0 or spec.partitions
        )

    def test_chaos_knobs_require_async_control(self):
        with pytest.raises(ConfigurationError):
            replace(get_scenario("flash-crowd"), loss_rate=0.2)
        with pytest.raises(ConfigurationError):
            replace(get_scenario("flash-crowd"), heartbeat_ms=40.0)

    def test_describe_mentions_chaos(self):
        text = get_scenario("lossy-flash-crowd").describe()
        assert "chaos" in text
        assert "loss=20%" in text


class TestDeterminism:
    @pytest.mark.parametrize("name", chaos_scenario_names())
    def test_same_seed_replays_bit_identically(self, name):
        spec = get_scenario(name, sites=8, seed=7)
        first, second = run_runtime(spec), run_runtime(spec)
        assert first.report.audit.digest == second.report.audit.digest
        # Every count at once: retransmits, give-ups, detections, ...
        assert first.report.control == second.report.control
        for attr in (
            "rounds",
            "messages_sent",
            "messages_dropped",
            "messages_duplicated",
            "unrecovered_suspicions",
        ):
            assert getattr(first.report, attr) == getattr(
                second.report, attr
            ), attr

    def test_different_seeds_diverge(self):
        one = run_runtime(get_scenario("lossy-flash-crowd", sites=8, seed=7))
        two = run_runtime(get_scenario("lossy-flash-crowd", sites=8, seed=23))
        assert one.report.audit.digest != two.report.audit.digest


class TestLossyCleanliness:
    @pytest.mark.parametrize("seed", (7, 23))
    @pytest.mark.parametrize("name", chaos_scenario_names())
    def test_every_installed_round_audits_clean(self, name, seed):
        runtime = run_runtime(get_scenario(name, sites=8, seed=seed), strict=True)
        report = runtime.report
        assert report.ok
        assert report.chaos
        assert report.messages_dropped > 0  # the chaos actually happened
        assert report.audit.events_audited == report.rounds

    def test_retransmits_recover_lost_admissions(self):
        """20% loss on the join burst: retransmission still registers
        every surviving site."""
        runtime = run_runtime(get_scenario("lossy-flash-crowd", sites=8, seed=7))
        report = runtime.report
        assert report.control.retransmits > 0
        assert report.unrecovered_suspicions == 0
        registered = set(runtime.server.registered_sites())
        assert runtime.active <= registered


class TestHeartbeatScenarios:
    def test_failures_detected_within_bound(self):
        spec = get_scenario("heartbeat-rolling-failure", sites=8, seed=7)
        report = run_runtime(spec).report
        assert report.events.get("fail", 0) > 0
        assert report.control.detected_failures > 0
        # Silence-to-withdrawal within miss_threshold beats plus one
        # detector sweep, despite 20% heartbeat loss.
        bound = (spec.miss_threshold + 1) * spec.heartbeat_ms
        assert 0 < report.mean_detection_ms <= report.max_detection_ms
        assert report.max_detection_ms <= bound
        assert report.ok

    def test_partition_heals_via_readmission(self):
        report = run_runtime(
            get_scenario("partitioned-churn", sites=8, seed=7)
        ).report
        assert report.control.false_suspicions >= 1  # the cut mimicked a death
        assert report.control.readmissions >= 1  # ...and the zombie healed
        assert report.unrecovered_suspicions == 0
        assert report.ok

    def test_summary_reports_chaos_lines(self):
        summary = run_runtime(
            get_scenario("heartbeat-rolling-failure", sites=8, seed=7)
        ).report.summary()
        assert "chaos:" in summary
        assert "detection:" in summary
        # Duplicates and stale reports are distinct failure modes and
        # must be reported as two numbers, never one conflated sum.
        assert re.search(
            r"\d+ duplicate / \d+ stale reports discarded", summary
        )


class TestDataChaos:
    def test_lossy_dissemination_recovers_everything(self):
        report = run_runtime(
            get_scenario("lossy-dissemination", sites=8, seed=7)
        ).report
        assert report.data_chaos
        assert report.dataplane_sends_dropped > 0
        assert report.dataplane_nacks_sent > 0
        assert report.dataplane_repairs_sent > 0
        assert report.dataplane_frames_recovered > 0
        assert report.dataplane_frames_unrecovered == 0
        summary = report.summary()
        assert "data chaos:" in summary
        assert "0 unrecovered" in summary

    def test_data_knobs_do_not_require_async_control(self):
        """Control chaos needs the event-driven service; data chaos
        rides the dissemination sidecar's own simulator and must stay
        legal on a synchronous-control spec."""
        spec = replace(
            get_scenario("flash-crowd", sites=5, seed=7),
            data_loss_rate=0.1,
            data_jitter_ms=2.0,
        )
        assert not spec.async_control
        assert spec.data_chaotic

    def test_data_chaos_auto_enables_the_dataplane_sidecar(self):
        spec = replace(
            get_scenario("flash-crowd", sites=5, seed=7), data_loss_rate=0.1
        )
        report = ScenarioRuntime(spec, audit=False).run()
        assert report.data_chaos
        assert report.dataplane_frames_delivered > 0
        assert report.dataplane_sends_dropped > 0


class TestTransparency:
    """Impairments the reliability layer fully absorbs are invisible."""

    def base_spec(self, seed: int = 7):
        return replace(
            get_scenario("flash-crowd", sites=8, seed=seed),
            async_control=True,
            control_delay_ms=20.0,
            debounce_ms=10.0,
        )

    def test_pure_duplication_is_absorbed(self):
        """duplicate_rate=1.0 doubles every envelope; idempotent receive
        discards every copy, so the audited timeline is bit-identical to
        the unimpaired run."""
        clean = run_runtime(self.base_spec())
        doubled = run_runtime(replace(self.base_spec(), duplicate_rate=1.0))
        assert doubled.report.messages_duplicated > 0
        assert doubled.report.control.duplicates_discarded > 0
        assert clean.directives == doubled.directives
        assert clean.report.audit.digest == doubled.report.audit.digest

    def test_forced_retransmits_are_absorbed(self):
        """Dropping every first-attempt ack forces the full retransmit
        machinery to run; since the originals all arrived, the audited
        overlay timeline must not move."""
        armed = replace(self.base_spec(), retransmit_timeout_ms=60.0)
        clean = run_runtime(armed)
        assert clean.report.control.retransmits == 0

        forced = ScenarioRuntime(armed)
        force_drops(
            forced.service.link,
            lambda kind, attempt, args: attempt == 0
            and kind in ("control-ack", "directive-ack"),
        )
        forced.run()
        assert forced.report.control.retransmits > 0
        assert forced.service.counts.duplicates_discarded > 0  # re-sent reports
        assert forced.service.counts.duplicate_directives > 0  # re-sent installs
        assert clean.directives == forced.directives
        assert clean.report.audit.digest == forced.report.audit.digest

    @pytest.mark.parametrize("seed", [7, 11, 23])
    @pytest.mark.parametrize(
        "ack, resent",
        [
            ("control-ack", "duplicates_discarded"),
            ("directive-ack", "duplicate_directives"),
        ],
    )
    def test_each_ack_direction_alone_is_absorbed(self, ack, resent, seed):
        """Losing only one direction's acks re-sends only that direction's
        originals, and the audited timeline still does not move."""
        armed = replace(self.base_spec(seed), retransmit_timeout_ms=60.0)
        clean = run_runtime(armed)
        forced = ScenarioRuntime(armed)
        force_drops(
            forced.service.link,
            lambda kind, attempt, args: attempt == 0 and kind == ack,
        )
        forced.run()
        assert forced.report.control.retransmits > 0
        assert getattr(forced.service, resent) > 0
        assert clean.directives == forced.directives
        assert clean.report.audit.digest == forced.report.audit.digest
