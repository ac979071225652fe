"""Small forest problems in distinct regimes, shared by the build pins
and the parent-scan sweeps.

Each regime names the rejection reasons CO-RJ's build of it meets, so a
regime that drifts out of what it was chosen for fails by name instead
of silently pinning an easier build.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.problem import ForestProblem
from repro.session.capacity import (
    HeterogeneousCapacityModel,
    UniformCapacityModel,
)
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream
from repro.workload.coverage import CoverageWorkloadModel

ALL_REASONS = frozenset(
    {"inbound-saturated", "tree-saturated", "victim-swapped"}
)


class Regime(NamedTuple):
    seed: int
    n_sites: int
    capacity: object
    workload: CoverageWorkloadModel
    displays_per_site: int
    bound_ms: float
    #: The rejection reasons CO-RJ's build meets.
    reasons: frozenset

    def problem(self) -> ForestProblem:
        rng = RngStream(self.seed, label=f"regime/N{self.n_sites}")
        session = build_session(
            load_backbone(f"synthetic-{self.n_sites}"),
            self.capacity,
            rng.spawn("session"),
            SessionConfig(
                n_sites=self.n_sites, displays_per_site=self.displays_per_site
            ),
        )
        workload = self.workload.generate(session, rng.spawn("workload"))
        return ForestProblem.from_workload(session, workload, self.bound_ms)


def _uniform(base: int, jitter: int) -> UniformCapacityModel:
    return UniformCapacityModel(base=base, jitter=jitter, streams_per_site=3)


def _sparse(mean: float, **kwargs) -> CoverageWorkloadModel:
    return CoverageWorkloadModel(
        mean_subscribers=mean, guarantee_coverage=False, **kwargs
    )


REGIMES = {
    # Every request fits: nothing is rejected, relays still form.
    "ample": Regime(
        2, 10, _uniform(20, 5), CoverageWorkloadModel(mean_subscribers=3.0),
        2, 400.0, frozenset(),
    ),
    # Degrees to spare, so only the latency bound rejects.
    "latency-bound": Regime(
        4, 12, _uniform(20, 5), CoverageWorkloadModel(mean_subscribers=5.0),
        2, 45.0, frozenset({"tree-saturated"}),
    ),
    "degree-bound": Regime(
        6, 12,
        HeterogeneousCapacityModel(
            large=6, medium=4, small=2, streams_low=2, streams_high=4
        ),
        _sparse(6.0), 2, 300.0, ALL_REASONS,
    ),
    "zipf-focus": Regime(
        8, 14,
        HeterogeneousCapacityModel(
            large=9, medium=6, small=3, streams_low=2, streams_high=5
        ),
        _sparse(6.0, popularity="zipf", zipf_exponent=1.2, focus_skew=1.0),
        2, 110.0, ALL_REASONS,
    ),
    "full-coverage": Regime(
        9, 12,
        HeterogeneousCapacityModel(
            large=9, medium=6, small=3, streams_low=2, streams_high=5
        ),
        CoverageWorkloadModel(interest=0.3), 2, 120.0, ALL_REASONS,
    ),
    "one-display": Regime(
        10, 12, _uniform(8, 3), _sparse(5.0), 1, 100.0, ALL_REASONS,
    ),
    "three-displays": Regime(
        12, 10, _uniform(10, 4), _sparse(5.0), 3, 100.0, ALL_REASONS,
    ),
    "dense-interest": Regime(
        13, 10,
        HeterogeneousCapacityModel(
            large=9, medium=6, small=3, streams_low=2, streams_high=4
        ),
        CoverageWorkloadModel(mean_subscribers=8.0), 2, 150.0, ALL_REASONS,
    ),
    "n24": Regime(
        14, 24,
        HeterogeneousCapacityModel(
            large=12, medium=8, small=4, streams_low=2, streams_high=5
        ),
        _sparse(7.0), 2, 110.0, ALL_REASONS,
    ),
    "n32-default-capacity": Regime(
        15, 32, HeterogeneousCapacityModel(), _sparse(4.0), 2, 130.0,
        ALL_REASONS,
    ),
}

_problems: dict[str, ForestProblem] = {}


def regime_problem(name: str) -> ForestProblem:
    """The named regime's problem, built once per test session.

    Builders read a problem and never write it, so the pins may share
    one instance.
    """
    if name not in _problems:
        _problems[name] = REGIMES[name].problem()
    return _problems[name]
