"""Every script in ``examples/`` runs to a zero exit.

The examples are the only callers of some public API, for example
``sim.churn.rebuild_after_leave`` and ``baselines.all_to_all_load``, so
running them keeps that API working rather than merely importable.
Each runs in its own interpreter, as a reader would run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_zero(script: Path):
    path = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
