"""repro — multi-site 3D tele-immersion publish-subscribe toolkit.

A production-quality reproduction of *"Towards Multi-Site Collaboration
in 3D Tele-Immersive Environments"* (Wu, Yang, Gupta, Nahrstedt; ICDCS
2008): the publish-subscribe dissemination model for multi-site 3DTI,
the overlay forest construction heuristics (LTF / STF / MCTF / RJ /
Gran-LTF / CO-RJ), and the simulation substrates needed to regenerate
every figure of the paper's evaluation.

Quickstart::

    from repro import quick_session, quick_problem, make_builder
    from repro.util import RngStream

    rng = RngStream(7)
    session = quick_session(n_sites=6, rng=rng)
    problem = quick_problem(session, rng=rng, popularity="zipf")
    result = make_builder("rj").build(problem, rng.spawn("build"))
    print(result.forest)

Scenarios
---------

``repro.scenarios`` stresses the whole control plane with adversarial,
seeded session shapes — flash-crowd joins, mass leaves, rolling site
failures, FOV thrash, capacity starvation and long mixed churn — while
the runtime :class:`~repro.sim.invariants.InvariantAuditor` re-derives
every structural invariant (forest acyclicity, parent/child symmetry,
per-RP capacity bounds and ``m̂`` reservation accounting, the ``B_cost``
latency bound, pub-sub membership ↔ forest consistency) after every
control-plane event::

    from repro.scenarios import get_scenario, run_scenario

    report = run_scenario(get_scenario("flash-crowd", sites=8, seed=7))
    assert report.ok, report.summary()
    print(report.audit.digest)   # bit-for-bit reproducible given the seed

The same scenarios drive ``tele3d scenario run <name> --sites 8 --audit``
on the command line, and every figure command accepts ``--audit`` to
verify each constructed overlay during a sweep.

See ``examples/`` for end-to-end scenarios (``examples/stress_audit.py``
for the audited stress loop), and ``tests/experiments/test_figure_shapes.py``
and ``tests/experiments/test_ablations.py`` for the per-figure
reproduction harnesses.
"""

from __future__ import annotations

from repro.errors import (
    ConfigurationError,
    OverlayError,
    ProtocolError,
    SessionError,
    SimulationError,
    SubscriptionError,
    Tele3DError,
    TopologyError,
)
from repro.core import (
    BuildResult,
    BuilderState,
    CorrelatedRandomJoinBuilder,
    ForestMetrics,
    ForestProblem,
    GranularityBuilder,
    LargestTreeFirstBuilder,
    MinCapacityTreeFirstBuilder,
    MulticastGroup,
    MulticastTree,
    OverlayBuilder,
    OverlayForest,
    RandomJoinBuilder,
    RejectionReason,
    SmallestTreeFirstBuilder,
    SubscriptionRequest,
    available_algorithms,
    make_builder,
)
from repro.session import (
    HeterogeneousCapacityModel,
    SessionConfig,
    StreamId,
    TISession,
    UniformCapacityModel,
    build_session,
)
from repro.scenarios import (
    ScenarioReport,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.sim import (
    AuditReport,
    FastDataPlane,
    ForestDataPlane,
    InvariantAuditor,
    make_dataplane,
)
from repro.topology import Topology, load_backbone, place_sites
from repro.workload import (
    SubscriptionWorkload,
    UniformPopularity,
    WorkloadGenerator,
    WorkloadSpec,
    ZipfPopularity,
)
from repro.util.rng import RngStream

__version__ = "1.0.0"

__all__ = [
    # errors
    "Tele3DError",
    "ConfigurationError",
    "TopologyError",
    "SessionError",
    "SubscriptionError",
    "OverlayError",
    "ProtocolError",
    "SimulationError",
    # core
    "BuildResult",
    "BuilderState",
    "CorrelatedRandomJoinBuilder",
    "ForestMetrics",
    "ForestProblem",
    "GranularityBuilder",
    "LargestTreeFirstBuilder",
    "MinCapacityTreeFirstBuilder",
    "MulticastGroup",
    "MulticastTree",
    "OverlayBuilder",
    "OverlayForest",
    "RandomJoinBuilder",
    "RejectionReason",
    "SmallestTreeFirstBuilder",
    "SubscriptionRequest",
    "available_algorithms",
    "make_builder",
    # session / topology / workload
    "HeterogeneousCapacityModel",
    "SessionConfig",
    "StreamId",
    "TISession",
    "UniformCapacityModel",
    "build_session",
    "Topology",
    "load_backbone",
    "place_sites",
    "SubscriptionWorkload",
    "UniformPopularity",
    "WorkloadGenerator",
    "WorkloadSpec",
    "ZipfPopularity",
    "RngStream",
    # scenarios / auditing
    "AuditReport",
    "InvariantAuditor",
    "FastDataPlane",
    "ForestDataPlane",
    "make_dataplane",
    "ScenarioReport",
    "ScenarioSpec",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    # convenience
    "quick_session",
    "quick_problem",
]


def quick_session(
    n_sites: int,
    rng: RngStream,
    nodes: str = "uniform",
    backbone: str = "tier1",
    displays_per_site: int = 4,
) -> TISession:
    """One-call session assembly on an embedded backbone.

    ``nodes`` selects the paper's capacity distribution (``uniform`` or
    ``heterogeneous``).
    """
    if nodes == "uniform":
        capacity_model = UniformCapacityModel()
    elif nodes == "heterogeneous":
        capacity_model = HeterogeneousCapacityModel()
    else:
        raise ConfigurationError(
            f"nodes must be 'uniform' or 'heterogeneous', got {nodes!r}"
        )
    topology = load_backbone(backbone)
    config = SessionConfig(n_sites=n_sites, displays_per_site=displays_per_site)
    return build_session(topology, capacity_model, rng.spawn("session"), config)


def quick_problem(
    session: TISession,
    rng: RngStream,
    popularity: str = "uniform",
    latency_bound_ms: float = 120.0,
    spec: WorkloadSpec | None = None,
) -> ForestProblem:
    """One-call workload draw + problem assembly for ``session``."""
    if popularity == "zipf":
        model = ZipfPopularity()
    elif popularity in ("uniform", "random"):
        model = UniformPopularity()
    else:
        raise ConfigurationError(
            f"popularity must be 'zipf' or 'uniform', got {popularity!r}"
        )
    generator = WorkloadGenerator(session=session, popularity=model, spec=spec)
    workload = generator.generate(rng.spawn("workload"))
    return ForestProblem.from_workload(session, workload, latency_bound_ms)
