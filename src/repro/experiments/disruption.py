"""Fig-style disruption sweep: rebuild policies under churn vs N.

The paper's centralized model re-solves the overlay from scratch on any
membership or subscription change; :mod:`repro.core.incremental` adds
local repair.  This harness quantifies the difference the way the
paper's figures do — one curve per rebuild policy, swept across session
size — using the scenario runtime's per-round disruption metric (the
fraction of surviving satisfied requests whose parent moved,
:func:`~repro.core.incremental.churn_rate`).

CLI::

    tele3d disruption --scenario mixed-churn --sizes 8,16,32 --seed 7
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.experiments.runner import SeriesResult
from repro.scenarios.library import get_scenario
from repro.scenarios.runtime import ScenarioReport, ScenarioRuntime
from repro.util.validation import REBUILD_POLICIES, check_rebuild_policy

#: Default sweep sizes; sizes above the embedded backbones switch to the
#: deterministic ``synthetic-<n>`` backbone automatically.
DEFAULT_SIZES = (8, 16, 32)

#: Site counts beyond this need the synthetic backbone (tier1 has 26 PoPs).
_MAX_TIER1_SITES = 26


def policy_spec(scenario: str, sites: int, seed: int, policy: str):
    """A named scenario pinned to one rebuild policy.

    Pools larger than the embedded tier1 backbone switch to the
    deterministic ``synthetic-<n>`` backbone.  This is the canonical
    spec builder for policy comparisons (the scenario property tests
    reuse it).
    """
    check_rebuild_policy(policy)
    spec = get_scenario(scenario, sites=sites, seed=seed)
    overrides: dict = {"rebuild_policy": policy}
    if sites > _MAX_TIER1_SITES:
        overrides["backbone"] = f"synthetic-{sites}"
    return replace(spec, **overrides)


def scenario_report(
    scenario: str,
    sites: int,
    seed: int,
    policy: str,
    audit: bool = False,
) -> ScenarioReport:
    """Run one named scenario under one rebuild policy."""
    spec = policy_spec(scenario, sites=sites, seed=seed, policy=policy)
    return ScenarioRuntime(spec, audit=audit).run()


def run_disruption(
    scenario: str = "mixed-churn",
    sizes: Sequence[int] = DEFAULT_SIZES,
    seed: int = 7,
    audit: bool = False,
) -> SeriesResult:
    """Sweep mean per-round disruption across N, one series per policy.

    Each policy replays the *same* compiled scenario (same seed, same
    event schedule), so the comparison is paired: only the overlay
    maintenance strategy differs.  A ``<policy>-rejection`` series rides
    along so quality loss is visible next to the stability gain.
    """
    result = SeriesResult(xs=list(sizes))
    for sites in sizes:
        for policy in REBUILD_POLICIES:
            report = scenario_report(
                scenario, sites=sites, seed=seed, policy=policy, audit=audit
            )
            result.add_point(policy, report.mean_disruption)
            result.add_point(f"{policy}-rejection", report.rejection_ratio)
    return result
