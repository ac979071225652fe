"""Shared fixtures: deterministic RNGs, small sessions and problems.

Also hosts the ``--runslow`` gate: tests marked ``slow`` or ``stress``
are skipped by default so the tier-1 loop stays fast; ``pytest
--runslow`` (as ``scripts/ci.sh`` does for the full run) enables them.
``pytest --array-backend python`` runs the whole suite with the
pure-python reference backend pinned (``scripts/ci.sh``'s second pass).
"""

from __future__ import annotations

import pytest

from repro.core.problem import ForestProblem
from repro.session.capacity import UniformCapacityModel
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel
from tests.reference_paths import use_array_backend


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked slow or stress",
    )
    parser.addoption(
        "--array-backend",
        choices=("python", "numpy"),
        default=None,
        help="pin the array backend for the whole run (default: what "
        "resolve_backend() selects for this install)",
    )


def pytest_configure(config: pytest.Config) -> None:
    name = config.getoption("--array-backend")
    if name is not None:
        pin = use_array_backend(name)
        pin.__enter__()
        config.add_cleanup(lambda: pin.__exit__(None, None, None))


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    if config.getoption("--runslow"):
        return
    gate = pytest.mark.skip(reason="slow/stress test; enable with --runslow")
    for item in items:
        if "slow" in item.keywords or "stress" in item.keywords:
            item.add_marker(gate)


@pytest.fixture
def rng() -> RngStream:
    """A fresh deterministic root stream."""
    return RngStream(1234, label="test")


@pytest.fixture(scope="session")
def tier1_topology():
    """The embedded global backbone (shared; read-only in tests)."""
    return load_backbone("tier1")


@pytest.fixture(scope="session")
def abilene_topology():
    """The embedded Abilene backbone (shared; read-only in tests)."""
    return load_backbone("abilene")


@pytest.fixture
def small_session(tier1_topology):
    """A 4-site uniform-capacity session."""
    return build_session(
        tier1_topology,
        UniformCapacityModel(streams_per_site=6),
        RngStream(7, label="session"),
        SessionConfig(n_sites=4, displays_per_site=2),
    )


@pytest.fixture
def small_problem(small_session):
    """A coverage-workload problem over the small session."""
    workload = CoverageWorkloadModel(interest=0.3).generate(
        small_session, RngStream(11, label="workload")
    )
    return ForestProblem.from_workload(small_session, workload, 200.0)


def complete_cost(n: int, off_diagonal: float = 1.0) -> dict[int, dict[int, float]]:
    """A complete symmetric cost matrix with one off-diagonal value."""
    return {
        i: {j: (0.0 if i == j else off_diagonal) for j in range(n)}
        for i in range(n)
    }


def is_leaf(tree, node: int) -> bool:
    """True when ``node`` is a member of ``tree`` with no children."""
    return node in tree and not tree.children(node)


def unserve(result, request) -> None:
    """Edit ``result`` after its build: ``request`` stops being satisfied
    while its node stays in the tree, relaying to its subtree."""
    result.forest.satisfied.remove(request)
    result.invalidate_caches()


def out_degree(forest, node: int) -> int:
    """Total out-degree of ``node`` across all trees of ``forest``."""
    return sum(1 for _, parent, _ in forest.edges() if parent == node)


def in_degree(forest, node: int) -> int:
    """Total in-degree of ``node`` across all trees of ``forest``."""
    return sum(1 for _, _, child in forest.edges() if child == node)


def audit_log_line(forest, event: str, time_ms: float, violations: int) -> bytes:
    """The line one audited event adds to the auditor's digest log.

    Written out from the forest's own edge iterator, so it is both the
    pin on the log's bytes and what a memo-free audit must have logged.
    """
    fingerprint = ",".join(
        f"{stream}:{parent}>{child}"
        for stream, parent, child in sorted(forest.edges())
    )
    return (
        f"{time_ms:.3f}|{event}|{fingerprint}|sat={len(forest.satisfied)}|"
        f"rej={len(forest.rejected)}|viol={violations}\n"
    ).encode("utf-8")
