"""Reference round paths and the reference array backend, for the
equivalence suites.

The membership server works its round path out from ``rebuild_policy``
(scratch assembly under ``always`` or with no previous problem, diffed
assembly from the dirty-registration delta otherwise; hybrid guarded by
the drift estimate).  The slower paths those replaced are not product
configuration: they live here, as overrides of one server *instance's*
assembly or guard step, so the digest suites can keep pinning the
product path to them.

The same goes for the array backend: production code takes whatever
``resolve_backend()`` selects for the install.  :func:`use_array_backend`
pins that selection, so the cross-backend suites can build the same
session under the pure-python reference and under numpy.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.core.backend as backend_mod
from repro.core.problem import ForestProblem
from repro.pubsub.membership import MembershipServer
from repro.scenarios.runtime import ScenarioRuntime
from repro.scenarios.spec import ScenarioSpec


@contextmanager
def use_array_backend(name: str):
    """Pin ``resolve_backend()`` to ``"python"`` or ``"numpy"`` for the block.

    Everything constructed inside the block binds the pinned backend and
    keeps it afterwards; the previous selection is restored on exit.
    """
    previous = backend_mod._selected
    backend_mod._selected = {
        "python": lambda: backend_mod._python_backend,
        "numpy": backend_mod.NumpyBackend,
    }[name]()
    try:
        yield backend_mod._selected
    finally:
        backend_mod._selected = previous


def use_reference_path(
    server: MembershipServer,
    assembly: str | None = None,
    measure_drift: bool = False,
) -> MembershipServer:
    """Pin ``server`` to a reference path; returns it for chaining.

    ``assembly`` forces how every round after the first is assembled,
    whatever the rebuild policy: ``"scratch"`` re-derives the problem
    from the session, ``"diffed"`` evolves it from the dirty-registration
    delta, ``"scan"`` evolves it by diffing a full workload re-scan
    (:meth:`ForestProblem.evolve`).  ``measure_drift`` makes hybrid solve
    from scratch every round instead of consulting the drift estimate.
    """
    if assembly is not None:
        step = {
            "scratch": lambda previous: server._assemble_scratch(),
            "diffed": server._assemble_diffed,
            "scan": lambda previous: _assemble_scanned(server, previous),
        }[assembly]

        def assemble() -> ForestProblem:
            previous = server._last_problem
            if previous is None:
                problem = server._assemble_scratch()
            else:
                problem = step(previous)
            server._last_problem = problem
            return problem

        server._assemble_problem = assemble
    if measure_drift:
        server._guard_hybrid = server._verify_against_scratch
    return server


def _assemble_scanned(
    server: MembershipServer, previous: ForestProblem
) -> ForestProblem:
    problem = ForestProblem.evolve(previous, server.global_workload())
    server._reset_group_index(problem)
    server._assemblies_diffed += 1
    server._last_assembly = "diffed"
    return problem


def reference_runtime(
    spec: ScenarioSpec,
    assembly: str | None = None,
    measure_drift: bool = False,
    **runtime_options,
) -> ScenarioRuntime:
    """A not-yet-run :class:`ScenarioRuntime` whose server is pinned."""
    runtime = ScenarioRuntime(spec, **runtime_options)
    use_reference_path(runtime.server, assembly, measure_drift)
    return runtime
