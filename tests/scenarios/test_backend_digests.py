"""Cross-backend audit-digest equivalence on the scenario matrix.

The audit digest hashes every structural fact of every control round, so
two runs with equal digests built byte-identical overlays through
byte-identical intermediate states.  Running each cell once per array
backend therefore pins the numpy kernels to the python reference at
full-system granularity — any divergence in parent selection, float
arithmetic or table bookkeeping changes the digest.

The tier-1 subset keeps the fast loop fast; ``--runslow`` enables the
full six-scenario x seed x algorithm x assembly matrix from the PR's
acceptance criteria.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.backend import numpy_available
from repro.scenarios import get_scenario, scenario_names
from tests.reference_paths import reference_runtime, use_array_backend

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


def _digest(
    name: str,
    seed: int,
    algorithm: str,
    backend: str,
    assembly: str | None = None,
    **overrides,
):
    spec = replace(
        get_scenario(name, sites=6, seed=seed),
        algorithm=algorithm,
        **overrides,
    )
    with use_array_backend(backend):
        report = reference_runtime(spec, assembly=assembly).run()
    assert report.audit is not None and report.audit.ok
    return report.audit.digest


def test_library_matches_matrix():
    # The slow matrix must not silently rot when scenarios are added.
    assert tuple(scenario_names()) == ALL_SCENARIOS


@needs_numpy
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ["flash-crowd", "mixed-churn"])
def test_backends_agree_tier1(name, algorithm):
    assert _digest(name, 13, algorithm, "python") == _digest(
        name, 13, algorithm, "numpy"
    )


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("seed", [13, 29])
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_backends_agree_full_matrix(name, algorithm, seed):
    assert _digest(name, seed, algorithm, "python") == _digest(
        name, seed, algorithm, "numpy"
    )


@needs_numpy
@pytest.mark.slow
@pytest.mark.parametrize("assembly", ["diffed", "scratch"])
@pytest.mark.parametrize("algorithm", ["rj", "co-rj"])
def test_backends_agree_on_assembly_paths(algorithm, assembly):
    """Diffed (evolve, copied bounds) vs scratch assembly, both backends."""
    kwargs = dict(rebuild_policy="incremental", assembly=assembly)
    assert _digest(
        "mixed-churn", 13, algorithm, "python", **kwargs
    ) == _digest("mixed-churn", 13, algorithm, "numpy", **kwargs)
