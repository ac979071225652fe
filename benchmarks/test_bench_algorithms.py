"""Algorithm-cost micro-benchmarks.

The paper argues RJ is "computationally more simple" than the
tree-based algorithms, which must sort all multicast groups.  These
benchmarks time one overlay construction per algorithm on a fixed
N=10 problem so the runtime comparison is direct.
"""

from __future__ import annotations

import pytest

from repro.core.model import MulticastGroup
from repro.core.problem import ForestProblem, ProblemDelta
from repro.core.registry import make_builder
from repro.experiments.runner import sample_problems
from repro.experiments.settings import ExperimentSetting
from repro.session.session import SessionConfig, build_session
from repro.topology.backbone import load_backbone
from repro.util.rng import RngStream

ALGORITHMS = ("stf", "ltf", "mctf", "rj", "co-rj")


@pytest.fixture(scope="module")
def fixed_problem(bench_seed):
    setting = ExperimentSetting(
        workload="random", nodes="uniform", samples=1, seed=bench_seed
    )
    return next(iter(sample_problems(setting, 10)))


@pytest.mark.parametrize("name", ALGORITHMS)
def test_build_cost(benchmark, name, fixed_problem, bench_seed):
    builder = make_builder(name)

    def run():
        return builder.build(fixed_problem, RngStream(bench_seed, label=name))

    result = benchmark(run)
    result.verify()
    benchmark.extra_info["algorithm"] = name
    benchmark.extra_info["requests"] = fixed_problem.total_requests()
    benchmark.extra_info["rejected"] = len(result.rejected)


@pytest.mark.parametrize("path", ("from_workload", "evolve_delta"))
def test_problem_assembly_cost(benchmark, path, bench_seed):
    """Cost of assembling one round's problem, from scratch vs diffed."""
    setting = ExperimentSetting(
        workload="random", nodes="uniform", samples=1, seed=bench_seed
    )
    rng = RngStream(bench_seed, label="assembly-cost")
    session = build_session(
        load_backbone(setting.backbone),
        setting.capacity_model(),
        rng.spawn("session"),
        SessionConfig(n_sites=10, displays_per_site=setting.displays_per_site),
    )
    workload = setting.workload_model().generate(session, rng.spawn("workload"))
    previous = ForestProblem.from_workload(
        session, workload, setting.latency_bound_ms
    )
    if path == "from_workload":

        def assemble():
            return ForestProblem.from_workload(
                session, workload, setting.latency_bound_ms
            )

    else:
        # One subscriber leaves one group: the steady-state churn shape.
        old = next(g for g in previous.groups if len(g.subscribers) > 1)
        new = MulticastGroup(
            stream=old.stream,
            subscribers=old.subscribers - {min(old.subscribers)},
        )
        delta = ProblemDelta(changed=((old, new),))

        def assemble():
            return ForestProblem.evolve_delta(previous, delta)

    problem = benchmark(assemble)
    assert problem.n_nodes == 10
    benchmark.extra_info["path"] = path
