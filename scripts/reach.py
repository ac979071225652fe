#!/usr/bin/env python3
"""Every product function that no product run calls, checked against KEEP.

    python3 scripts/reach.py

Runs, in this one process and under ``sys.setprofile``, what the product
is for:

- the 78 digest cells (``scripts/digest_cells.py``);
- each benchmark workload driver at ``smoke`` size, once plain and once
  under the benchmark's span tracer (``benchmarks/e2e/run.py``'s child);
- every ``python -m repro.cli`` line of ``scripts/ci.sh`` (``--full``
  included) and every other CLI command at a small size;
- ``scripts/scale_probe.py``'s rows at N=64 and N=160 (160 crosses the
  scipy threshold of the shortest-path rows);
- every ``examples/*.py``.

It then prints each function or method defined under ``src/repro`` that
none of them called and that ``KEEP`` does not name, and exits 1 if there
is one.  A function is named ``<path under src/repro>::<qualified name>``.
The runs use the install's array backend and ``KEEP`` is written for
numpy; without numpy the list kernels are reached instead, so the script
exits 2.  About 30 s on a 2-vCPU box.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import re
import runpy
import shlex
import sys
from argparse import Namespace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Functions kept although no run above calls them, each with its reason.
KEEP = {
    # The problem's validating constructor for explicit tables, and what
    # only it reaches.
    "core/problem.py::ForestProblem.from_tables":
        "the validating constructor for explicit cost and limit tables",
    "core/problem.py::ForestProblem.__init__": "what from_tables builds through",
    "core/problem.py::_checked_cost": "from_tables' and set_cost's cost check",
    "core/problem.py::ForestProblem.set_cost": "the validated write of one cost",
    "topology/dense.py::DenseCostMatrix.set_cost":
        "ForestProblem.set_cost's write into the shared matrix",
    "experiments/report.py::markdown_section":
        "the markdown form of a report section",
    # The python reference kernels; the numpy backend overrides them.
    "core/backend.py::ArrayBackend.disseminate":
        "the list kernel, run where numpy is absent",
    "core/backend.py::ArrayBackend.frame_sizes":
        "the list kernel, run where numpy is absent",
    "core/backend.py::ArrayBackend.unit_floats":
        "the list kernel, run where numpy is absent",
    # Abstract and protocol hooks, overridden or called by the protocol.
    "core/base.py::OverlayBuilder.phases": "abstract: every builder overrides it",
    "core/tree_order.py::_TreeOrderedBuilder.order_groups":
        "abstract: every tree-ordered builder overrides it",
    "session/capacity.py::CapacityModel.assign": "abstract capacity model",
    "workload/generator.py::PopularityModel.weights":
        "abstract popularity model",
    "sim/dataplane.py::DeliveryTable.__getitem__":
        "the Mapping protocol's lookup",
    "pubsub/messages.py::_Table.__getitem__":
        "the Sequence protocol: a table reads as the tuple it replaces",
    "pubsub/messages.py::_Table.__add__": "tuple parity: table + tuple",
    "pubsub/messages.py::_Table.__hash__": "tuple parity: equal tables hash equal",
    "pubsub/messages.py::_Table._raw": "what __getitem__ and __add__ read",
    "pubsub/messages.py::_Table._row": "abstract: each table decodes its rows",
    "pubsub/messages.py::EdgeTable._row": "what __getitem__ decodes",
    "pubsub/messages.py::RejectionTable._row": "what __getitem__ decodes",
    "pubsub/messages.py::EdgeTable.of":
        "builds a table from edge tuples; rejects a malformed edge",
    "pubsub/messages.py::_checked_edge": "EdgeTable.of's malformed-edge check",
    "core/model.py::SubscriptionRequest._make":
        "NamedTuple protocol: _replace builds through it, so both validate",
    "core/node_join.py::JoinOutcome._make":
        "NamedTuple protocol: _replace builds through it, so both validate",
    "session/streams.py::StreamId._make":
        "NamedTuple protocol: _replace builds through it, so both validate",
    # The service's state as it runs.
    "pubsub/service.py::MembershipService.pending_build": "inspection",
    "pubsub/service.py::MembershipService.live_sites": "inspection",
    "pubsub/service.py::MembershipService.server_down": "inspection",
    "pubsub/service.py::MembershipService.suspecting_sites": "inspection",
    "pubsub/service.py::MembershipService.mean_convergence_ms":
        "inspection, beside the reached max_convergence_ms",
    # Reached only by a fault or a violation the runs do not provoke.
    "pubsub/service.py::MembershipService._report_exhausted":
        "a report retransmitted until it gives up",
    "pubsub/service.py::MembershipService._push_exhausted":
        "a directive push retransmitted until it gives up",
    "sim/invariants.py::Violation.render": "prints a violation",
    # Reached only by CLI input the runs do not give.
    "core/registry.py::available_algorithms":
        "make_builder's error message for an unknown name",
    # What repr() and str() print, and what they call.
    "core/backend.py::ArrayBackend.__repr__": "repr",
    "core/forest.py::MulticastTree.__repr__": "repr",
    "core/forest.py::OverlayForest.__str__": "str",
    "core/model.py::MulticastGroup.__str__": "str",
    "core/model.py::RejectionReason.__str__": "str",
    "core/model.py::SubscriptionRequest.__str__": "str",
    "topology/dense.py::DenseCostMatrix.__repr__": "repr",
    "topology/graph.py::Topology.__repr__": "repr",
    "topology/graph.py::Topology.links": "what Topology.__repr__ counts",
    "topology/graph.py::Topology.link_count": "what Topology.__repr__ prints",
    "util/rng.py::RngStream.__repr__": "repr",
    "util/tables.py::Table.__str__": "str",
    "workload/spec.py::SubscriptionWorkload.__str__": "str",
    "workload/spec.py::SubscriptionWorkload.total_requests":
        "what SubscriptionWorkload.__str__ prints",
}


# -- what exists ---------------------------------------------------------------


def defined() -> dict[tuple[str, int], str]:
    """``(file, first line of its code object) -> name`` for every def.

    A decorated function's code object starts at its first decorator.
    """
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                    first = min(lines)
                    found[(str(path), first)] = f"{relative}::{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


# -- the runs ------------------------------------------------------------------


def ci_cli_lines() -> list[list[str]]:
    """The arguments of every ``python -m repro.cli`` line of ci.sh."""
    script = (ROOT / "scripts" / "ci.sh").read_text().replace("\\\n", " ")
    return [shlex.split(found)
            for found in re.findall(r"python -m repro\.cli ([^)\n]*)", script)]


#: The CLI commands ci.sh does not run, each at a small size.
OTHER_CLI = (
    "demo --sites 5", "fig8 --samples 2", "fig9 --samples 2",
    "fig10 --samples 2", "fig11 --samples 2 --audit",
    "all --samples 1 --no-plot", "scorecard --samples 2",
    "disruption --sizes 8", "convergence --delays 0,20", "scenario list",
)


def run_cli() -> None:
    from repro.cli import main

    for argv in ci_cli_lines() + [line.split() for line in OTHER_CLI]:
        if main(argv) != 0:
            raise SystemExit(f"reach.py: repro.cli {shlex.join(argv)} failed")


def run_digest_cells() -> None:
    import digest_cells

    digest_cells.cells()


def run_benchmark_drivers() -> None:
    import run
    import workloads

    for name in workloads.WORKLOADS:
        for traced in (0, 1):
            run.child_main(Namespace(workload=[name], seed=7, scale="smoke",
                                     trace=traced, trace_dir=None))


def run_scale_probe() -> None:
    import scale_probe

    for n in (64, 160):
        scale_probe.child(n)


def run_examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")


RUNS = (run_digest_cells, run_benchmark_drivers, run_cli, run_scale_probe,
        run_examples)


def reached() -> set:
    """The code objects every run called, each run's output swallowed."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for directory in ("src", "scripts", "benchmarks/e2e", "examples"):
        sys.path.insert(0, str(ROOT / directory))
    argv = sys.argv
    try:
        for run in RUNS:
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    run()
            finally:
                sys.setprofile(None)
    finally:
        sys.argv = argv
    return {(code.co_filename, code.co_firstlineno) for code in called}


def main() -> int:
    if importlib.util.find_spec("numpy") is None:
        print("reach.py: KEEP is written for the numpy backend, which is "
              "not importable here", file=sys.stderr)
        return 2
    called = reached()
    names = defined()
    unreached = sorted(name for key, name in names.items()
                       if key not in called and name not in KEEP)
    needless = sorted(name for key, name in names.items()
                      if key in called and name in KEEP)
    for name in unreached:
        print(name)
    for name in needless:
        print(f"{name} (kept, but a run calls it)")
    print(f"reach.py: {len(unreached)} function(s) no product run calls "
          f"and KEEP does not name, {len(needless)} KEEP entries a run calls",
          file=sys.stderr)
    return 1 if unreached or needless else 0


if __name__ == "__main__":
    sys.exit(main())
