"""Property tests: every named scenario, audited, at several scales.

These are the regression net for later scaling PRs: any change to the
builders, the pub-sub layer or the session machinery that breaks a
structural invariant under churn fails here, with a seed to replay.

The rebuild-policy matrix is the acceptance net for incremental
re-solve: for every named scenario the ``incremental`` policy must keep
every invariant, reject no more than a from-scratch rebuild (within
tolerance), and disturb strictly fewer surviving subscribers per round.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.registry import available_algorithms
from repro.experiments.disruption import policy_spec
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runtime import ScenarioRuntime, run_scenario
from tests.reference_paths import reference_runtime

SIZES = (3, 5, 8)

#: Extra rejection ratio the incremental policy may cost vs scratch.
REJECTION_TOLERANCE = 0.05


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("sites", SIZES)
class TestZeroViolations:
    def test_audited_run_is_clean(self, name, sites):
        report = run_scenario(get_scenario(name, sites=sites, seed=13))
        assert report.audit is not None
        assert report.audit.ok, report.summary()
        assert report.rounds >= 1


@pytest.mark.parametrize("name", scenario_names())
class TestSeedMatrixDeterminism:
    def test_same_seed_identical_digest(self, name):
        """Same spec + seed ⇒ bit-for-bit identical audit digest."""
        spec = get_scenario(name, sites=6, seed=21)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.audit.digest == second.audit.digest
        assert first.rounds == second.rounds
        assert first.events == second.events
        assert first.requests_total == second.requests_total

    def test_different_seed_diverges(self, name):
        """Different seeds produce observably different runs."""
        first = run_scenario(get_scenario(name, sites=6, seed=1))
        second = run_scenario(get_scenario(name, sites=6, seed=2))
        assert first.audit.digest != second.audit.digest


class TestAlgorithmMatrix:
    @pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
    def test_every_builder_survives_starvation(self, algorithm):
        """All six builders keep every invariant under capacity starvation."""
        spec = replace(
            get_scenario("capacity-starvation", sites=5, seed=9),
            algorithm=algorithm,
        )
        report = run_scenario(spec)
        assert report.ok, report.summary()


@pytest.mark.parametrize("name", scenario_names())
class TestIncrementalRepairAt64:
    """Acceptance: at N=64 incremental repair must beat always-rebuild.

    Every named scenario runs once per policy over the same compiled
    event schedule; the auditor re-derives every invariant each round,
    so a clean report means repair never corrupted the overlay.
    """

    def test_incremental_strictly_less_disruptive(self, name):
        always = run_scenario(policy_spec(name, 64, 13, "always"))
        incremental = run_scenario(policy_spec(name, 64, 13, "incremental"))
        assert always.audit is not None and always.ok, always.summary()
        assert incremental.audit is not None and incremental.ok, (
            incremental.summary()
        )
        assert incremental.repairs >= 1
        assert (
            incremental.mean_disruption < always.mean_disruption
        ), (
            f"{name}: incremental {incremental.mean_disruption:.4f} not "
            f"below always {always.mean_disruption:.4f}"
        )
        assert incremental.rejection_ratio <= (
            always.rejection_ratio + REJECTION_TOLERANCE
        )


@pytest.mark.stress
class TestStressMatrix:
    """Larger pools and more seeds; enabled with ``--runslow``."""

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_large_pool_clean(self, name, seed):
        report = run_scenario(get_scenario(name, sites=12, seed=seed))
        assert report.ok, report.summary()

    @pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
    def test_mixed_churn_all_builders(self, algorithm):
        spec = replace(
            get_scenario("mixed-churn", sites=10, seed=4), algorithm=algorithm
        )
        report = run_scenario(spec)
        assert report.ok, report.summary()


@pytest.mark.stress
@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("seed", (13, 29))
@pytest.mark.parametrize("sites", (16, 32, 64))
class TestPolicyMatrixStress:
    """The full scenario x seed x N policy matrix (``--runslow``)."""

    def test_policies_agree_on_quality(self, name, seed, sites):
        always = run_scenario(policy_spec(name, sites, seed, "always"))
        incremental = run_scenario(
            policy_spec(name, sites, seed, "incremental")
        )
        for report in (always, incremental):
            assert report.audit is not None and report.ok, report.summary()
        assert incremental.rejection_ratio <= (
            always.rejection_ratio + REJECTION_TOLERANCE
        )
        assert incremental.mean_disruption <= always.mean_disruption


@pytest.mark.stress
class TestDiffedAssemblyHighChurn:
    """An audited high-churn scenario on the diffed-assembly path.

    This is the diffed-assembly acceptance net: a long mixed-churn run
    (every event kind, tripled event counts, a large pool) whose every
    round evolves the previous problem instead of rebuilding it — the
    auditor re-derives every structural invariant per round, so one run
    checks the whole patch machinery under adversarial diffs.
    """

    def high_churn_spec(self, sites: int, seed: int):
        base = policy_spec("mixed-churn", sites, seed, "incremental")
        schedule = tuple(
            replace(phase, count=phase.count * 3) for phase in base.schedule
        )
        return replace(
            base,
            name="high-churn-diffed",
            schedule=schedule,
        )

    @pytest.mark.parametrize("seed", (13, 29))
    @pytest.mark.parametrize("sites", (16, 32))
    def test_auditor_clean_every_round(self, sites, seed):
        report = run_scenario(self.high_churn_spec(sites, seed))
        assert report.audit is not None and report.ok, report.summary()
        # Every round past the bootstrap ran the diffed path.
        assert report.assemblies_scratch == 1
        assert report.assemblies_diffed == report.rounds - 1
        assert report.rounds > 2 * sites  # genuinely high churn

    def test_diffed_matches_scratch_under_high_churn(self):
        spec = self.high_churn_spec(16, seed=13)
        diffed_rt = ScenarioRuntime(spec)
        scratch_rt = reference_runtime(spec, assembly="scratch")
        diffed = diffed_rt.run()
        scratch = scratch_rt.run()
        assert diffed_rt.directives == scratch_rt.directives
        assert diffed.audit.digest == scratch.audit.digest
