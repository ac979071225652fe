"""The async-control acceptance suite.

Two pillars:

* **Equivalence** — with ``control_delay_ms = debounce_ms = 0`` the
  event-driven control plane is the *degenerate case* of the
  synchronous one: for every named scenario, seed and builder, both
  paths must emit bit-identical directive sequences (same epochs, same
  edges, same rejections, same delta fields) and end on the same
  forest.  This is what lets the service replace the synchronous model
  without re-litigating any existing behavior.
* **Asynchrony** — with nonzero delay the regimes the synchronous model
  cannot express (overlapping rounds, joins landing mid-build,
  debounce coalescing) actually occur *and* every installed epoch keeps
  the :class:`~repro.sim.invariants.InvariantAuditor` clean.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runtime import ScenarioRuntime
from repro.scenarios.spec import EventKind, SchedulePhase, ScenarioSpec
from repro.errors import ConfigurationError

SITES = 6

#: The acceptance matrix: every named scenario x 2 seeds x {RJ, CO-RJ}.
SEEDS = (7, 23)
BUILDERS = ("rj", "co-rj")


def run_pair(spec: ScenarioSpec) -> tuple[ScenarioRuntime, ScenarioRuntime]:
    """Run a spec synchronously and async-with-zero-delay."""
    sync_rt = ScenarioRuntime(spec)
    sync_rt.run()
    async_rt = ScenarioRuntime(replace(spec, async_control=True))
    async_rt.run()
    return sync_rt, async_rt


class TestZeroDelayEquivalence:
    @pytest.mark.parametrize("algorithm", BUILDERS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", scenario_names())
    def test_directives_bit_identical(self, name, seed, algorithm):
        spec = replace(
            get_scenario(name, sites=SITES, seed=seed), algorithm=algorithm
        )
        sync_rt, async_rt = run_pair(spec)
        assert sync_rt.directives == async_rt.directives
        # Same final forest behind the last directive.
        sync_forest = sorted(sync_rt.server.last_result.forest.edges())
        async_forest = sorted(async_rt.server.last_result.forest.edges())
        assert sync_forest == async_forest
        # Same per-round accounting and clean audits on both sides.
        assert sync_rt.report.rounds == async_rt.report.rounds
        assert sync_rt.report.requests_total == async_rt.report.requests_total
        assert sync_rt.report.rejected_total == async_rt.report.rejected_total
        assert sync_rt.report.ok and async_rt.report.ok

    def test_equivalence_holds_under_incremental_policy(self):
        """Delta directives flow through both paths identically."""
        spec = replace(
            get_scenario("mixed-churn", sites=SITES, seed=7),
            rebuild_policy="incremental",
        )
        sync_rt, async_rt = run_pair(spec)
        assert sync_rt.directives == async_rt.directives
        assert any(d.is_delta for d in sync_rt.directives)

    def test_rp_state_identical_after_run(self):
        spec = get_scenario("flash-crowd", sites=SITES, seed=7)
        sync_rt, async_rt = run_pair(spec)
        for site in range(SITES):
            sync_rp, async_rp = sync_rt.rps[site], async_rt.rps[site]
            assert sync_rp.epoch == async_rp.epoch
            assert sync_rp.receiving_set() == async_rp.receiving_set()
            assert sync_rp._forwarding == async_rp._forwarding


class TestAsyncRegimes:
    def mid_build_join_spec(self, seed: int = 7) -> ScenarioSpec:
        """A join burst dense enough that joins land while rounds are
        still propagating (delay 50ms, events every ~35ms)."""
        return replace(
            get_scenario("flash-crowd", sites=8, seed=seed),
            async_control=True,
            control_delay_ms=50.0,
            debounce_ms=15.0,
        )

    def test_mid_build_joins_audit_clean(self):
        runtime = ScenarioRuntime(self.mid_build_join_spec(), strict=True)
        report = runtime.run()
        assert report.ok
        assert report.events.get("join", 0) > 0
        # The async-only regime actually occurred: rounds were triggered
        # while their predecessor was still converging.
        assert report.overlapping_rounds > 0
        assert report.audit is not None
        assert report.audit.events_audited == report.rounds

    def test_every_triggered_round_converges(self):
        runtime = ScenarioRuntime(self.mid_build_join_spec())
        report = runtime.run()
        service = runtime.service
        assert all(round_.converged for round_ in service.rounds)
        assert report.convergence_rounds == report.rounds
        # Convergence can't beat debounce + two link traversals.
        floor = service.debounce_ms + 2 * service.control_delay_ms
        assert report.mean_convergence_ms >= floor
        assert report.max_convergence_ms >= report.mean_convergence_ms

    def test_debounce_coalesces_event_bursts(self):
        """A wide debounce window folds a join burst into fewer rounds."""
        spec = replace(
            get_scenario("flash-crowd", sites=8, seed=7),
            async_control=True,
            debounce_ms=120.0,
        )
        runtime = ScenarioRuntime(spec, strict=True)
        report = runtime.run()
        events = sum(report.events.values())
        assert report.rounds < 1 + events   # sync would run 1 + events
        assert any(round_.coalesced > 1 for round_ in runtime.service.rounds)
        assert report.ok

    @pytest.mark.parametrize("name", scenario_names())
    def test_named_scenarios_clean_under_delay(self, name):
        spec = replace(
            get_scenario(name, sites=SITES, seed=7),
            async_control=True,
            control_delay_ms=25.0,
            debounce_ms=10.0,
        )
        report = ScenarioRuntime(spec, strict=True).run()
        assert report.ok
        assert report.async_control

    def test_summary_mentions_async_control(self):
        report = ScenarioRuntime(self.mid_build_join_spec()).run()
        summary = report.summary()
        assert "async control" in summary
        assert "convergence" in summary


class TestReliableZeroFaultEquivalence:
    """Arming retransmission without any link faults must be a no-op:
    acks flow, but nothing is ever retransmitted and the audited
    timeline is bit-identical to the plain async path."""

    @pytest.mark.parametrize("algorithm", BUILDERS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", scenario_names())
    def test_armed_retransmit_transparent_without_faults(
        self, name, seed, algorithm
    ):
        spec = replace(
            get_scenario(name, sites=SITES, seed=seed),
            algorithm=algorithm,
            async_control=True,
        )
        clean = ScenarioRuntime(spec)
        clean.run()
        armed = ScenarioRuntime(replace(spec, retransmit_timeout_ms=60.0))
        armed.run()
        assert clean.directives == armed.directives
        assert clean.report.audit.digest == armed.report.audit.digest
        assert armed.report.chaos
        assert armed.report.retransmits == 0
        assert armed.report.retransmit_giveups == 0


class TestSpecValidation:
    def test_delay_without_async_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="bad",
                n_sites=4,
                initial_active=4,
                duration_ms=100.0,
                seed=1,
                control_delay_ms=10.0,
            )

    def test_negative_debounce_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="bad",
                n_sites=4,
                initial_active=4,
                duration_ms=100.0,
                seed=1,
                async_control=True,
                debounce_ms=-1.0,
            )

    def test_describe_mentions_async(self):
        spec = replace(
            get_scenario("flash-crowd"),
            async_control=True,
            control_delay_ms=50.0,
        )
        assert "async" in spec.describe()


class TestAsyncBootstrap:
    def test_empty_session_still_runs_bootstrap_round(self):
        spec = ScenarioSpec(
            name="empty",
            n_sites=4,
            initial_active=0,
            duration_ms=100.0,
            seed=3,
            async_control=True,
        )
        sync_report = ScenarioRuntime(replace(spec, async_control=False)).run()
        async_report = ScenarioRuntime(spec).run()
        assert async_report.rounds == sync_report.rounds == 1

    def test_fail_mid_flight_directive_still_installs(self):
        """A site that fails while a directive is in flight still applies
        it (the failure is server-side only), and stays audit-clean."""
        spec = replace(
            get_scenario("rolling-failure", sites=8, seed=11),
            async_control=True,
            control_delay_ms=60.0,
            debounce_ms=5.0,
        )
        report = ScenarioRuntime(spec, strict=True).run()
        assert report.ok
        assert report.events.get("fail", 0) > 0
