"""Audit-digest equivalence for the O(churn) control-round paths.

Two pure-cost rewrites ride the round path: diffed assembly consumes
the server's dirty-registration delta instead of rescanning the
workload's groups, and the repair shares untouched trees with the
previous round instead of replaying the whole forest.  Neither is
allowed to change a single structural fact of any round: each must be
digest-identical to its reference path (``scan`` / the replay repair,
reached through :mod:`tests.reference_paths`) across the scenario
matrix, on both array backends.

The tier-1 subset keeps the fast loop fast; ``--runslow`` enables the
full six-scenario x seed x algorithm x backend matrix from the PR's
acceptance criteria.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.backend import numpy_available, resolve_backend
from repro.scenarios import get_scenario
from repro.scenarios.runtime import ScenarioRuntime
from tests.reference_paths import (
    check_repairs_against_replay,
    reference_runtime,
    use_array_backend,
    use_replay_repair,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not importable"
)

ALL_SCENARIOS = (
    "capacity-starvation",
    "flash-crowd",
    "fov-thrash",
    "mass-leave",
    "mixed-churn",
    "rolling-failure",
)

BACKENDS = ("python", "numpy")


def _delta_source_digest(
    name: str, seed: int, algorithm: str, backend: str, delta_source: str
):
    spec = _repair_spec(name, seed, algorithm)
    assembly = "scan" if delta_source == "scan" else None
    with use_array_backend(backend):
        report = reference_runtime(spec, assembly=assembly).run()
    assert report.audit is not None and report.audit.ok
    return report.audit.digest


@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ["flash-crowd", "mixed-churn"])
def test_dirty_delta_matches_scan_tier1(name, algorithm):
    backend = resolve_backend().name  # this install's selection
    assert _delta_source_digest(
        name, 13, algorithm, backend, "dirty"
    ) == _delta_source_digest(name, 13, algorithm, backend, "scan")


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [13, 29])
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_dirty_delta_matches_scan_full_matrix(name, algorithm, seed, backend):
    assert _delta_source_digest(
        name, seed, algorithm, backend, "dirty"
    ) == _delta_source_digest(name, seed, algorithm, backend, "scan")


def _assert_delta_repair_matches_replay(spec, backend: str) -> ScenarioRuntime:
    """Run ``spec`` twice: delta repair (self-checking) and replay repair.

    The first runtime asserts every single repair against the replay on
    the same inputs (trees, rejections, ledger, counts, sharing,
    ``previous`` untouched); the second repairs by replay throughout.
    Both must then tell the same story: audit digest, directive
    sequence (edges, deltas, rejections) and summary.
    """
    with use_array_backend(backend):
        delta = ScenarioRuntime(spec, audit=True)
        check_repairs_against_replay(delta.server)
        delta_report = delta.run()
        replay = ScenarioRuntime(spec, audit=True)
        use_replay_repair(replay.server)
        replay_report = replay.run()
    assert delta_report.audit is not None and delta_report.audit.ok
    assert delta_report.audit.digest == replay_report.audit.digest
    assert delta.directives == replay.directives
    assert delta_report.summary() == replay_report.summary()
    assert delta.server.repairs == replay.server.repairs > 0
    return delta


def _repair_spec(name: str, seed: int, algorithm: str):
    return replace(
        get_scenario(name, sites=6, seed=seed),
        algorithm=algorithm,
        rebuild_policy="incremental",
    )


@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ["capacity-starvation", "mixed-churn"])
def test_delta_repair_matches_replay_tier1(name, algorithm):
    # capacity-starvation carries standing rejections (retried into
    # shared trees) and, under co-rj, victim swaps and infeasible
    # repairs that fall back to a rebuild; mixed-churn has the joins,
    # leaves and failures that drop and orphan.
    backend = resolve_backend().name  # this install's selection
    _assert_delta_repair_matches_replay(
        _repair_spec(name, 13, algorithm), backend
    )


def test_delta_repair_matches_replay_with_overlapping_async_rounds():
    """A later repair runs before an earlier round's audit.

    Under async control with loss and a partition, rounds overlap: the
    auditor reads round t's retained result when its last delivery
    lands, after rounds t+1.. were repaired from it.  A repair that
    wrote into ``previous`` would corrupt exactly those audits.
    """
    spec = replace(
        get_scenario("partitioned-churn", sites=8, seed=7),
        rebuild_policy="incremental",
    )
    delta = _assert_delta_repair_matches_replay(spec, resolve_backend().name)
    assert delta.service.overlapping_rounds() > 0


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [13, 29])
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_delta_repair_matches_replay_full_matrix(name, algorithm, seed, backend):
    _assert_delta_repair_matches_replay(
        _repair_spec(name, seed, algorithm), backend
    )
