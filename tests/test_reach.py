"""``scripts/reach.py``: its ``KEEP`` table and the runs it reads.

The probe itself takes half a minute and ``scripts/ci.sh`` runs it; these
checks read the source tree only, so a deletion cannot leave a stale
``KEEP`` entry behind.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_kept_name_is_a_defined_function():
    defined = set(reach.defined().values())
    assert sorted(set(reach.KEEP) - defined) == []


def test_every_kept_name_carries_a_reason():
    assert all(reason.strip() for reason in reach.KEEP.values())


def test_names_are_path_and_qualified_name():
    names = reach.defined().values()
    assert "core/problem.py::ForestProblem.from_tables" in names
    assert "core/problem.py::ForestProblem._patch_u.<locals>.row_of" in names
    assert "cli.py::main" in names


def test_a_decorated_function_is_keyed_by_its_first_decorator():
    source = ROOT / "src" / "repro" / "pubsub" / "service.py"
    lines = source.read_text().splitlines()
    keys = {name: key for key, name in reach.defined().items()}
    path, first = keys["pubsub/service.py::MembershipService.server_down"]
    assert path == str(source)
    assert lines[first - 1].strip() == "@property"
    assert lines[first].strip().startswith("def server_down(")


def test_every_ci_cli_line_is_read():
    lines = reach.ci_cli_lines()
    script = (ROOT / "scripts" / "ci.sh").read_text()
    assert len(lines) == script.count("python -m repro.cli ")
    assert all(argv[0] == "scenario" and argv[1] == "run" for argv in lines)
    # Continuation lines are joined: flags after a line break count.
    assert any("co-rj" in argv for argv in lines)
